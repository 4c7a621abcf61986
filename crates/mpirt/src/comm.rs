//! The world communicator and its point-to-point operations.
//!
//! Every send — blocking, non-blocking, or a barrier round — goes through
//! one private post (`Comm::post`): count the message, pick eager or
//! rendezvous, deliver the envelope, and return the [`SendRequest`] that
//! completes it. Every blocking wait — a blocking or timed receive, a
//! rendezvous send, a request's `wait` — goes through one poll loop
//! (`Waiter::block_on`), in checked and unchecked universes alike: between
//! polls it checks the universe's abort flag, which a panicking rank sets,
//! so no wait outlives a dead rank by more than one poll slice.

use crate::data::MpiType;
use crate::lock;
use crate::matching::{Envelope, Mailbox, PayloadSlot, RecvSlot, Rendezvous};
use crate::trace::RankTrace;
use crate::types::{MpiError, MpiResult, Rank, Status, Tag, MAX_USER_TAG};
use crate::verify::{
    BlockedOp, Finding, RankLostReport, Verifier, WaitHandle, WireSig, ABORT_POLL,
};
use bytes::Bytes;
use obs::names::{MPI_ISEND, MPI_RECV, MPI_SEND};
use obs::ArgValue;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Panic payload of an injected fault-plan crash — lets the universe tell
/// a planned rank loss apart from a genuine rank bug at teardown.
#[derive(Debug)]
pub(crate) struct InjectedCrash {
    /// World rank that was taken down.
    pub(crate) rank: Rank,
}

/// Shared state of an MPI "universe": one mailbox per world rank plus
/// configuration and counters.
#[derive(Debug)]
pub struct WorldState {
    pub(crate) mailboxes: Vec<Arc<Mailbox>>,
    pub(crate) eager_threshold: usize,
    pub(crate) msgs_sent: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    /// Correctness checker shared by all ranks (`None` for unchecked runs).
    pub(crate) verifier: Option<Arc<Verifier>>,
    /// Per-world-rank point-to-point operation counters, driving fault
    /// injection (always present; empty `fault_after` disables the check).
    pub(crate) op_counts: Vec<AtomicU64>,
    /// `Some(k)` at index `r`: rank `r` crashes on its `k`-th p2p operation
    /// (0-based, so `Some(0)` crashes on the very first op).
    pub(crate) fault_after: Vec<Option<u64>>,
    /// World ranks actually taken down by injection, recorded before the
    /// crash unwinds.
    pub(crate) injected_crashes: Mutex<BTreeSet<Rank>>,
    /// Set once `abort` holds the universe's abort error: the first rank
    /// that panicked, or the checker's deadlock verdict.
    aborted: AtomicBool,
    abort: Mutex<Option<MpiError>>,
}

impl WorldState {
    pub(crate) fn new(
        n: usize,
        eager_threshold: usize,
        verifier: Option<Arc<Verifier>>,
        fault_after: Vec<Option<u64>>,
    ) -> Arc<Self> {
        debug_assert!(fault_after.len() == n);
        Arc::new(WorldState {
            mailboxes: (0..n).map(|_| Arc::new(Mailbox::new())).collect(),
            eager_threshold,
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            verifier,
            op_counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            fault_after,
            injected_crashes: Mutex::new(BTreeSet::new()),
            aborted: AtomicBool::new(false),
            abort: Mutex::new(None),
        })
    }

    /// The error every still-blocked wait returns, once the universe has
    /// been aborted.
    pub(crate) fn abort_error(&self) -> Option<MpiError> {
        if !self.aborted.load(Ordering::Acquire) {
            return None;
        }
        lock(&self.abort).clone()
    }

    /// Abort the universe with `err`; the first abort wins.
    pub(crate) fn abort_with(&self, err: MpiError) {
        let mut slot = lock(&self.abort);
        if slot.is_none() {
            *slot = Some(err);
            self.aborted.store(true, Ordering::Release);
        }
    }

    /// What `mpiexec` does when a process dies: abort the universe, so
    /// every rank blocked now or later fails with [`MpiError::RankLost`]
    /// naming `rank`, checked or not.
    pub(crate) fn rank_lost(&self, rank: Rank) {
        let ranks = self.verifier.as_ref().map_or(Vec::new(), |v| v.snapshot());
        self.abort_with(MpiError::RankLost(Arc::new(RankLostReport {
            lost: vec![rank],
            ranks,
        })));
    }
}

/// How a send completes: the `MPI_Send` and `MPI_Isend` modes of the one
/// post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendMode {
    /// Return once the payload is queued (eager) or claimed (rendezvous).
    Blocking,
    /// Return the request at once; the caller completes it.
    Immediate,
}

/// What a blocking wait needs besides its handle: the world, whose abort
/// flag it polls, and the node this rank occupies in the checker's
/// wait-for graph while an untimed wait blocks (checked runs only).
/// Pending requests carry one, so their `wait()` needs no `Comm`.
#[derive(Debug, Clone)]
struct Waiter {
    world: Arc<WorldState>,
    rank: Rank,
    op: BlockedOp,
}

impl Waiter {
    /// The `(verifier, receiving rank)` pair typed receives check against.
    fn verify_ctx(&self) -> Option<(&Verifier, Rank)> {
        self.world.verifier.as_deref().map(|v| (v, self.rank))
    }

    /// The one blocking wait of the point-to-point layer. `poll` waits up
    /// to the given slice for `handle` to complete. Between `ABORT_POLL`
    /// slices the loop checks the universe's abort flag, and the timeout
    /// (timed receives only), whose expiry is [`MpiError::Timeout`].
    ///
    /// An untimed wait in a checked run sits in the wait-for graph as
    /// `self.op` while it blocks. A timed wait never does — timing out IS
    /// progress, e.g. a failure detector legitimately waits on a dead peer.
    fn block_on<R>(
        &self,
        handle: WaitHandle,
        timeout: Option<Duration>,
        mut poll: impl FnMut(Duration) -> Option<R>,
    ) -> MpiResult<R> {
        let deadline = timeout.map(|t| (t, Instant::now() + t));
        let _block = match (&self.world.verifier, deadline) {
            (Some(v), None) => Some(v.block_guard(self.rank, self.op.clone(), handle)),
            _ => None,
        };
        loop {
            let slice = match deadline {
                None => ABORT_POLL,
                Some((timeout, at)) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(MpiError::Timeout(timeout));
                    }
                    ABORT_POLL.min(left)
                }
            };
            if let Some(out) = poll(slice) {
                return Ok(out);
            }
            if let Some(e) = self.world.abort_error() {
                return Err(e);
            }
        }
    }
}

/// The world communicator (`MPI_COMM_WORLD`), the only one there is: every
/// rank of the universe, ranked `0..size()`.
///
/// Each rank's function receives its own `Comm` handle. The handle is
/// `Send` but intentionally not `Sync` — a rank is a single logical thread
/// of execution.
pub struct Comm {
    pub(crate) world: Arc<WorldState>,
    pub(crate) rank: Rank,
    /// Per-rank barrier sequence number; every rank calls the barrier the
    /// same number of times (an MPI requirement), which keeps these
    /// counters in lockstep without communication.
    pub(crate) coll_seq: Cell<u64>,
    /// Optional per-rank tracing handle (set by `Universe::run_traced`).
    pub(crate) trace: Option<Arc<RankTrace>>,
}

impl Comm {
    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.world.mailboxes.len()
    }

    /// Configured eager/rendezvous protocol switch-over, in bytes.
    pub fn eager_threshold(&self) -> usize {
        self.world.eager_threshold
    }

    /// Total messages sent across the whole universe so far (diagnostics).
    pub fn universe_msgs_sent(&self) -> u64 {
        self.world.msgs_sent.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent across the whole universe (diagnostics).
    pub fn universe_bytes_sent(&self) -> u64 {
        self.world.bytes_sent.load(Ordering::Relaxed)
    }

    /// This rank's tracing handle, when the universe was launched with
    /// [`Universe::run_traced`](crate::Universe::run_traced). Higher layers
    /// (e.g. MPI-D) use it to put their own stage spans on the rank's lane.
    pub fn trace(&self) -> Option<&Arc<RankTrace>> {
        self.trace.as_ref()
    }

    /// Start timestamp for a traced operation, or `None` when tracing is
    /// off (one branch on the fast path).
    #[inline]
    pub(crate) fn trace_start(&self) -> Option<u64> {
        self.trace.as_ref().map(|t| t.now_ns())
    }

    /// Close a barrier span opened by [`Comm::trace_start`].
    #[inline]
    pub(crate) fn trace_coll(&self, name: &'static str, start: Option<u64>) {
        if let (Some(t), Some(start)) = (&self.trace, start) {
            t.complete_since(
                name,
                obs::names::CAT_MPI_COLL,
                start,
                vec![("size", ArgValue::U64(self.size() as u64))],
            );
        }
    }

    /// Close a point-to-point span opened by [`Comm::trace_start`].
    #[inline]
    fn trace_p2p(&self, name: &'static str, start: Option<u64>, peer: i64, tag: Tag, bytes: u64) {
        if let (Some(t), Some(start)) = (&self.trace, start) {
            t.complete_since(
                name,
                obs::names::CAT_MPI_P2P,
                start,
                vec![
                    ("peer", ArgValue::I64(peer)),
                    ("tag", ArgValue::I64(tag as i64)),
                    ("bytes", ArgValue::U64(bytes)),
                ],
            );
        }
    }

    /// The universe's checker, when this run is verified.
    #[inline]
    pub(crate) fn verifier(&self) -> Option<&Arc<Verifier>> {
        self.world.verifier.as_ref()
    }

    /// The wait this rank may block in as `op`.
    fn waiter(&self, op: BlockedOp) -> Waiter {
        Waiter {
            world: self.world.clone(),
            rank: self.rank,
            op,
        }
    }

    /// The error for a send that found `dst`'s mailbox closed. After a
    /// universe abort (deadlock or rank loss) the peer left
    /// *because* of the abort, so the sender reports that — the same error
    /// a blocked receive would — rather than the bare departure.
    fn peer_gone(&self, dst: Rank) -> MpiError {
        self.world
            .abort_error()
            .unwrap_or(MpiError::PeerGone { rank: dst })
    }

    /// Number of messages that have arrived in this rank's queue
    /// (optionally filtered by tag) but have not been received. Clean-shutdown audits in layers above MPI (e.g. MPI-D's
    /// `MPI_D_Finalize`) use this to detect dropped traffic.
    pub fn pending_messages(&self, tag: Option<Tag>) -> usize {
        self.world.mailboxes[self.rank].unexpected_matching(None, tag)
    }

    /// Report an application-level unclean-shutdown observation to the
    /// checker (no-op in unchecked universes). The finding lands in the
    /// run's [`VerifyReport`](crate::VerifyReport).
    pub fn report_shutdown_leak(&self, detail: String) {
        if let Some(v) = self.verifier() {
            v.finding(Finding::ShutdownLeak {
                rank: self.rank,
                detail,
            });
        }
    }

    /// Fault-injection hook at every point-to-point funnel: bump this
    /// rank's op counter and, once it passes the configured crash point,
    /// take the rank down with a recognizable panic payload. The crash is
    /// recorded *before* unwinding so teardown can classify the run as
    /// [`MpiError::RankLost`] rather than a genuine rank bug.
    #[inline]
    fn fault_check(&self) {
        let me = self.rank;
        if let Some(after) = self.world.fault_after[me] {
            let n = self.world.op_counts[me].fetch_add(1, Ordering::Relaxed);
            if n >= after {
                lock(&self.world.injected_crashes).insert(me);
                // resume_unwind (not panic_any) so the planned crash unwinds
                // the rank without tripping the global panic hook — the loss
                // is reported structurally as MpiError::RankLost, not as
                // backtrace noise on stderr.
                std::panic::resume_unwind(Box::new(InjectedCrash { rank: me }));
            }
        }
    }

    fn check_rank(&self, r: Rank) -> MpiResult<()> {
        if r >= self.size() {
            return Err(MpiError::RankOutOfRange {
                rank: r,
                size: self.size(),
            });
        }
        Ok(())
    }

    fn check_tag(&self, t: Tag) -> MpiResult<()> {
        if !(0..=MAX_USER_TAG).contains(&t) {
            return Err(MpiError::TagOutOfRange(t));
        }
        Ok(())
    }

    /// The one send path, under every user send and every barrier round:
    /// count the message, pick eager or rendezvous, deliver the envelope —
    /// a closed mailbox maps through [`Comm::peer_gone`] — and return the
    /// request that completes it. A `Blocking` send completes it before
    /// returning. Internal tags are allowed.
    pub(crate) fn post(
        &self,
        dst: Rank,
        tag: Tag,
        data: Bytes,
        sig: WireSig,
        mode: SendMode,
    ) -> MpiResult<SendRequest> {
        self.fault_check();
        self.check_rank(dst)?;
        self.world.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.world
            .bytes_sent
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let (payload, rv) = if data.len() <= self.world.eager_threshold {
            (PayloadSlot::Eager(data), None)
        } else {
            let rv = Rendezvous::new(data);
            (PayloadSlot::Rendezvous(rv.clone()), Some(rv))
        };
        self.world.mailboxes[dst]
            .deliver(Envelope {
                src: self.rank,
                tag,
                payload,
                sig: Some(sig),
            })
            .map_err(|_| self.peer_gone(dst))?;
        // Completing a rendezvous send blocks until the receiver has
        // matched; that wait is what the checker needs to know about.
        let rv = rv.map(|rv| {
            let op = BlockedOp::RendezvousSend {
                dst,
                tag,
                bytes: rv.size,
            };
            (rv, self.waiter(op))
        });
        let req = SendRequest { rv };
        match mode {
            SendMode::Blocking => req.complete().map(|()| SendRequest { rv: None }),
            SendMode::Immediate => Ok(req),
        }
    }

    /// Shell of the public sends: validate the user tag, post, and trace
    /// the call as `name`.
    fn user_send(
        &self,
        name: &'static str,
        dst: Rank,
        tag: Tag,
        data: Bytes,
        sig: WireSig,
        mode: SendMode,
    ) -> MpiResult<SendRequest> {
        self.check_tag(tag)?;
        let start = self.trace_start();
        let len = data.len() as u64;
        let out = self.post(dst, tag, data, sig, mode);
        self.trace_p2p(name, start, dst as i64, tag, len);
        out
    }

    /// Match the earliest unexpected message or post a receive slot: the
    /// body of `MPI_Irecv`, which the blocking receive then waits on.
    fn post_recv<T: MpiType>(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> MpiResult<RecvRequest<T>> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let waiter = self.waiter(BlockedOp::Recv { src, tag });
        let state = match self.world.mailboxes[self.rank].match_or_post(src, tag) {
            Ok(env) => RecvReqState::Ready(env),
            Err((slot, _)) => RecvReqState::Waiting(slot),
        };
        Ok(RecvRequest {
            state,
            waiter,
            _marker: PhantomData,
        })
    }

    /// Blocking receive that allows internal tags: post, then wait.
    pub(crate) fn recv_internal<T: MpiType>(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> MpiResult<(Vec<T>, Status)> {
        self.fault_check();
        self.post_recv(src, tag)?.wait()
    }

    /// Wait for one matching envelope, with an optional deadline (the
    /// shared body of the timed and zero-copy receives). An untimed wait
    /// joins the wait-for graph like [`Comm::recv`]; a timed one never
    /// does (see `Waiter::block_on`).
    fn recv_env(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        timeout: Option<Duration>,
    ) -> MpiResult<Envelope> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let mailbox = &self.world.mailboxes[self.rank];
        let (slot, posted_id) = match mailbox.match_or_post(src, tag) {
            Ok(env) => return Ok(env),
            Err(posted) => posted,
        };
        let waiter = self.waiter(BlockedOp::Recv { src, tag });
        let handle = WaitHandle::Slot(slot.clone());
        let poll = |slice| slot.wait_timeout(slice);
        match waiter.block_on(handle.clone(), timeout, poll) {
            Err(MpiError::Timeout(t)) => {
                if mailbox.cancel_posted(posted_id) {
                    return Err(MpiError::Timeout(t));
                }
                // Lost the race: the message arrived between the timeout
                // and the cancellation, and is being delivered to the slot.
                waiter.block_on(handle, None, poll)
            }
            Err(e) => {
                mailbox.cancel_posted(posted_id);
                Err(e)
            }
            ok => ok,
        }
    }

    /// Shell of the public receives: validate the user tag, receive, and
    /// trace a successful receive.
    fn user_recv<R>(
        &self,
        tag: Option<Tag>,
        recv: impl FnOnce() -> MpiResult<(R, Status)>,
    ) -> MpiResult<(R, Status)> {
        if let Some(t) = tag {
            self.check_tag(t)?;
        }
        let start = self.trace_start();
        let out = recv();
        if let Ok((_, st)) = &out {
            self.trace_p2p(MPI_RECV, start, st.source as i64, st.tag, st.bytes as u64);
        }
        out
    }

    /// Checker context for typed-receive signature checks.
    fn verify_ctx(&self) -> Option<(&Verifier, Rank)> {
        self.verifier().map(|v| (v.as_ref(), self.rank))
    }

    // ----- public point-to-point API (the MPI_Send/MPI_Recv analogs) -----

    /// Blocking send (`MPI_Send`): eager-copies small payloads, performs a
    /// rendezvous for payloads above [`Comm::eager_threshold`].
    pub fn send<T: MpiType>(&self, dst: Rank, tag: Tag, data: &[T]) -> MpiResult<()> {
        let (bytes, sig) = (T::to_bytes(data), wire_sig(data));
        self.user_send(MPI_SEND, dst, tag, bytes, sig, SendMode::Blocking)
            .map(drop)
    }

    /// Blocking receive (`MPI_Recv`). `src`/`tag` of `None` are the
    /// `MPI_ANY_SOURCE` / `MPI_ANY_TAG` wildcards.
    pub fn recv<T: MpiType>(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> MpiResult<(Vec<T>, Status)> {
        self.user_recv(tag, || self.recv_internal(src, tag))
    }

    /// Receive with a deadline — not part of MPI, but essential for tests
    /// and failure handling (a receive that would hang forever instead
    /// reports [`MpiError::Timeout`]).
    pub fn recv_timeout<T: MpiType>(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> MpiResult<(Vec<T>, Status)> {
        self.user_recv(tag, || {
            let env = self.recv_env(src, tag, Some(timeout))?;
            env_into_typed(env, self.verify_ctx())
        })
    }

    // ----- zero-copy raw-byte variants -----
    //
    // `send::<u8>`/`recv_timeout::<u8>` stage the payload through a fresh
    // allocation on each side (`T::to_bytes` copies in, `T::from_bytes`
    // copies out). Bulk-data layers (MPI-D realigned frames) already hold
    // their payload as one contiguous buffer, so these variants move the
    // refcounted `Bytes` handle end to end with no copy at all.

    /// Blocking send of a raw byte payload. Protocol and semantics match
    /// [`Comm::send`] of `u8` elements, minus the staging copy.
    pub fn send_bytes(&self, dst: Rank, tag: Tag, data: Bytes) -> MpiResult<()> {
        let sig = wire_sig::<u8>(&data);
        self.user_send(MPI_SEND, dst, tag, data, sig, SendMode::Blocking)
            .map(drop)
    }

    /// Receive handing back the payload as refcounted [`Bytes`], with an
    /// optional deadline: `None` waits like [`Comm::recv`] (untimed, in the
    /// checker's wait-for graph), a duration like [`Comm::recv_timeout`].
    /// Either way minus the copy out of the envelope.
    pub fn recv_bytes_timeout(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        timeout: impl Into<Option<Duration>>,
    ) -> MpiResult<(Bytes, Status)> {
        let timeout = timeout.into();
        self.user_recv(tag, || {
            self.recv_env(src, tag, timeout).map(Envelope::into_bytes)
        })
    }

    /// Non-blocking send (`MPI_Isend`). The returned request completes
    /// immediately for eager payloads and when the receiver matches for
    /// rendezvous payloads.
    pub fn isend<T: MpiType>(&self, dst: Rank, tag: Tag, data: &[T]) -> MpiResult<SendRequest> {
        let (bytes, sig) = (T::to_bytes(data), wire_sig(data));
        self.user_send(MPI_ISEND, dst, tag, bytes, sig, SendMode::Immediate)
    }

    /// Non-blocking receive (`MPI_Irecv`).
    pub fn irecv<T: MpiType>(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> MpiResult<RecvRequest<T>> {
        if let Some(t) = tag {
            self.check_tag(t)?;
        }
        self.post_recv(src, tag)
    }
}

/// Type signature of a typed payload, stamped onto outgoing envelopes.
pub(crate) fn wire_sig<T: MpiType>(data: &[T]) -> WireSig {
    WireSig {
        type_name: T::NAME,
        elem_size: T::WIRE_SIZE,
        count: data.len(),
    }
}

/// Unwrap a matched envelope into typed elements, recording a checker
/// finding when the sender's stamped element type is incompatible with the
/// receive type (observation-only; the bytes are decoded either way, and a
/// payload length that is not a multiple of the element size remains the
/// hard `TypeMismatch` error it always was).
fn env_into_typed<T: MpiType>(
    env: Envelope,
    verify: Option<(&Verifier, Rank)>,
) -> MpiResult<(Vec<T>, Status)> {
    if let (Some((v, me)), Some(sig)) = (verify, env.sig) {
        if !sig.compatible_with(T::NAME) {
            v.finding(Finding::TypeMismatch {
                rank: me,
                src: env.src,
                tag: env.tag,
                sent: sig,
                expected: T::NAME,
            });
        }
    }
    let (bytes, status) = env.into_bytes();
    Ok((T::from_bytes(&bytes)?, status))
}

/// Handle for a non-blocking send.
#[derive(Debug)]
pub struct SendRequest {
    /// The rendezvous payload still to be claimed, and the wait for it
    /// (`None`: nothing to wait for).
    rv: Option<(Arc<Rendezvous>, Waiter)>,
}

impl SendRequest {
    /// Block until the rendezvous payload, if any, is claimed. Fails only
    /// when the universe is aborted meanwhile.
    fn complete(self) -> MpiResult<()> {
        let Some((rv, waiter)) = &self.rv else {
            return Ok(());
        };
        waiter.block_on(WaitHandle::Rv(rv.clone()), None, |slice| {
            rv.wait_taken_timeout(slice).then_some(())
        })
    }

    /// Block until the transfer is complete (`MPI_Wait`).
    ///
    /// # Panics
    /// Panics with the abort's report if the universe is aborted (a lost
    /// rank, or a deadlock in a checked universe) while this send is still
    /// waiting to rendezvous.
    pub fn wait(self) {
        if let Err(e) = self.complete() {
            panic!("{e}");
        }
    }

    /// Completion check without blocking (`MPI_Test`).
    pub fn test(&self) -> bool {
        self.rv.as_ref().is_none_or(|(rv, _)| rv.is_taken())
    }
}

#[derive(Debug)]
enum RecvReqState {
    Ready(Envelope),
    Waiting(Arc<RecvSlot>),
}

/// Handle for a non-blocking receive of `T` elements.
#[derive(Debug)]
pub struct RecvRequest<T: MpiType> {
    state: RecvReqState,
    waiter: Waiter,
    _marker: PhantomData<fn() -> T>,
}

impl<T: MpiType> RecvRequest<T> {
    /// Block until the message arrives (`MPI_Wait`). An abort (a lost
    /// rank, or a deadlock in a checked universe) surfaces as its error.
    pub fn wait(self) -> MpiResult<(Vec<T>, Status)> {
        let env = match self.state {
            RecvReqState::Ready(env) => env,
            RecvReqState::Waiting(slot) => {
                self.waiter
                    .block_on(WaitHandle::Slot(slot.clone()), None, |slice| {
                        slot.wait_timeout(slice)
                    })?
            }
        };
        env_into_typed(env, self.waiter.verify_ctx())
    }

    /// True once a matching message has arrived (`MPI_Test`); `wait` will
    /// then return without blocking.
    pub fn test(&self) -> bool {
        match &self.state {
            RecvReqState::Ready(_) => true,
            RecvReqState::Waiting(slot) => slot.is_ready(),
        }
    }
}
