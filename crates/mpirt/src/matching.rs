//! The message-matching engine: per-rank mailboxes with posted-receive and
//! unexpected-message queues.
//!
//! This is the heart of any MPI implementation. Every rank owns a mailbox;
//! a send locks the *destination* mailbox and either completes a posted
//! receive that matches `(source, tag)` or parks the envelope on the
//! unexpected queue. A receive first scans the unexpected queue (in arrival
//! order — MPI's non-overtaking guarantee), then posts itself and blocks.
//!
//! Matching rules (MPI 3.1 §3.5, for the one communicator there is): a
//! receive matches a message if each of source/tag is either equal or a
//! wildcard on the receive side. Among candidates, the *earliest sent*
//! message wins; among posted receives, the *earliest posted* wins.
//!
//! Each handle a rank can block on has exactly one wait, and it is timed:
//! [`RecvSlot::wait_timeout`] for a posted receive,
//! [`Rendezvous::wait_taken_timeout`] for a parked rendezvous payload. The
//! blocking operations in [`comm`](crate::comm) poll them in slices, so one
//! loop serves checked and unchecked universes alike.

use crate::types::{MpiError, MpiResult, Rank, Status, Tag};
use crate::verify::WireSig;
use crate::{lock, wait_while};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A message in flight (header + payload or rendezvous token).
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Rank of the sender.
    pub src: Rank,
    /// Tag.
    pub tag: Tag,
    /// The data.
    pub payload: PayloadSlot,
    /// Element-type signature stamped by typed sends (checker metadata;
    /// `None` for raw internal traffic or unchecked universes).
    pub sig: Option<WireSig>,
}

/// Eagerly-copied bytes, or a rendezvous token the receiver must pull from.
#[derive(Debug, Clone)]
pub enum PayloadSlot {
    /// Payload travelled with the envelope (eager protocol).
    Eager(Bytes),
    /// Payload is parked at the sender until matched (rendezvous protocol).
    Rendezvous(Arc<Rendezvous>),
}

impl PayloadSlot {
    /// Size in bytes (known for both protocols — rendezvous sends the size in
    /// its ready-to-send header).
    pub fn len(&self) -> usize {
        match self {
            PayloadSlot::Eager(b) => b.len(),
            PayloadSlot::Rendezvous(r) => r.size,
        }
    }
    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Envelope {
    /// The payload bytes (claiming a rendezvous payload, which completes
    /// its sender) and the receive status describing them.
    pub(crate) fn into_bytes(self) -> (Bytes, Status) {
        let bytes = match self.payload {
            PayloadSlot::Eager(b) => b,
            PayloadSlot::Rendezvous(rv) => rv.take(),
        };
        let status = Status {
            source: self.src,
            tag: self.tag,
            bytes: bytes.len(),
        };
        (bytes, status)
    }
}

/// Sender-side parking spot for a large message (rendezvous protocol).
///
/// The sender deposits the bytes and waits on
/// [`Rendezvous::wait_taken_timeout`]; the receiver claims them with
/// [`Rendezvous::take`], which wakes the sender. This reproduces MPI_Send's
/// synchronous behaviour above the eager threshold.
#[derive(Debug)]
pub struct Rendezvous {
    /// Payload size (the RTS header content).
    pub size: usize,
    state: Mutex<RvState>,
    cond: Condvar,
}

#[derive(Debug)]
struct RvState {
    data: Option<Bytes>,
    taken: bool,
}

impl Rendezvous {
    /// Park `data` for a matched receiver.
    pub fn new(data: Bytes) -> Arc<Self> {
        Arc::new(Rendezvous {
            size: data.len(),
            state: Mutex::new(RvState {
                data: Some(data),
                taken: false,
            }),
            cond: Condvar::new(),
        })
    }

    /// Receiver side: claim the payload (panics on double take — a matching
    /// engine bug, not a user error).
    pub fn take(&self) -> Bytes {
        let mut st = lock(&self.state);
        let data = st.data.take().expect("rendezvous payload taken twice");
        st.taken = true;
        self.cond.notify_all();
        data
    }

    /// Sender side: block until claimed or `timeout`; true once claimed.
    pub fn wait_taken_timeout(&self, timeout: Duration) -> bool {
        wait_while(&self.cond, lock(&self.state), timeout, |st| !st.taken).taken
    }

    /// Sender side: non-blocking completion check.
    pub fn is_taken(&self) -> bool {
        lock(&self.state).taken
    }
}

/// Where a matched envelope is delivered for a blocked receiver.
#[derive(Debug)]
pub struct RecvSlot {
    state: Mutex<Option<Envelope>>,
    cond: Condvar,
}

impl RecvSlot {
    fn new() -> Arc<Self> {
        Arc::new(RecvSlot {
            state: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    /// Deliver an envelope (called by the sender that unposted this slot).
    pub fn deliver(&self, env: Envelope) {
        let mut st = lock(&self.state);
        debug_assert!(st.is_none(), "recv slot delivered twice");
        *st = Some(env);
        self.cond.notify_all();
    }

    /// Block until delivery or `timeout`, consuming the envelope.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Envelope> {
        wait_while(&self.cond, lock(&self.state), timeout, |st| st.is_none()).take()
    }

    /// True if an envelope has been delivered and not yet consumed.
    pub fn is_ready(&self) -> bool {
        lock(&self.state).is_some()
    }
}

/// A receive that has been posted and is waiting for a matching send.
#[derive(Debug)]
struct PostedRecv {
    src: Option<Rank>,
    tag: Option<Tag>,
    slot: Arc<RecvSlot>,
    /// Posting sequence, for cancel.
    id: u64,
}

fn matches(src: Rank, tag: Tag, want_src: Option<Rank>, want_tag: Option<Tag>) -> bool {
    want_src.is_none_or(|s| s == src) && want_tag.is_none_or(|t| t == tag)
}

#[derive(Debug, Default)]
struct MailboxInner {
    unexpected: VecDeque<Envelope>,
    posted: Vec<PostedRecv>,
    next_posted_id: u64,
    closed: bool,
}

/// One rank's incoming-message state.
#[derive(Debug, Default)]
pub struct Mailbox {
    inner: Mutex<MailboxInner>,
}

impl Mailbox {
    /// Fresh empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deliver a message to this mailbox: complete the earliest matching
    /// posted receive, or queue as unexpected.
    ///
    /// Returns `Err(PeerGone)` if the mailbox is closed (its rank finished).
    pub fn deliver(&self, env: Envelope) -> MpiResult<()> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err(MpiError::PeerGone { rank: env.src });
        }
        let pos = inner
            .posted
            .iter()
            .position(|p| matches(env.src, env.tag, p.src, p.tag));
        match pos {
            Some(i) => {
                let posted = inner.posted.remove(i);
                drop(inner);
                posted.slot.deliver(env);
            }
            None => inner.unexpected.push_back(env),
        }
        Ok(())
    }

    /// Receive path: take the earliest matching unexpected message, or post a
    /// receive slot to block on. Returns either the envelope or the slot.
    pub fn match_or_post(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Envelope, (Arc<RecvSlot>, u64)> {
        let mut inner = lock(&self.inner);
        let pos = inner
            .unexpected
            .iter()
            .position(|e| matches(e.src, e.tag, src, tag));
        if let Some(i) = pos {
            return Ok(inner.unexpected.remove(i).expect("indexed"));
        }
        let slot = RecvSlot::new();
        let id = inner.next_posted_id;
        inner.next_posted_id += 1;
        inner.posted.push(PostedRecv {
            src,
            tag,
            slot: slot.clone(),
            id,
        });
        Err((slot, id))
    }

    /// Remove a posted receive (used when a timed receive gives up). Returns
    /// false if it was already matched.
    pub fn cancel_posted(&self, id: u64) -> bool {
        let mut inner = lock(&self.inner);
        let before = inner.posted.len();
        inner.posted.retain(|p| p.id != id);
        inner.posted.len() != before
    }

    /// Mark this rank as finished; subsequent deliveries fail with
    /// `PeerGone`.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
    }

    /// Count of unexpected (unclaimed) messages — diagnostics.
    pub fn unexpected_len(&self) -> usize {
        lock(&self.inner).unexpected.len()
    }

    /// Count of unexpected messages matching `(src, tag)` (wildcards
    /// allowed) — used by clean-shutdown audits above the MPI layer.
    pub fn unexpected_matching(&self, src: Option<Rank>, tag: Option<Tag>) -> usize {
        lock(&self.inner)
            .unexpected
            .iter()
            .filter(|e| matches(e.src, e.tag, src, tag))
            .count()
    }

    /// Teardown audit: drain everything still parked in this mailbox —
    /// unclaimed unexpected envelopes and never-matched posted receives
    /// (as `(src, tag)` descriptors).
    #[allow(clippy::type_complexity)]
    pub(crate) fn drain_leftovers(&self) -> (Vec<Envelope>, Vec<(Option<Rank>, Option<Tag>)>) {
        let mut inner = lock(&self.inner);
        let unexpected = inner.unexpected.drain(..).collect();
        let posted = inner.posted.drain(..).map(|p| (p.src, p.tag)).collect();
        (unexpected, posted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: Rank, tag: Tag, data: &[u8]) -> Envelope {
        Envelope {
            src,
            tag,
            payload: PayloadSlot::Eager(Bytes::copy_from_slice(data)),
            sig: None,
        }
    }

    fn payload(e: &Envelope) -> &[u8] {
        match &e.payload {
            PayloadSlot::Eager(b) => b,
            _ => panic!("expected eager payload"),
        }
    }

    #[test]
    fn unexpected_then_matched_in_arrival_order() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 5, b"first")).unwrap();
        mb.deliver(env(0, 5, b"second")).unwrap();
        let got = mb.match_or_post(Some(0), Some(5)).unwrap();
        assert_eq!(payload(&got), b"first");
        let got = mb.match_or_post(Some(0), Some(5)).unwrap();
        assert_eq!(payload(&got), b"second");
    }

    #[test]
    fn wildcard_source_and_tag_match_anything() {
        let mb = Mailbox::new();
        mb.deliver(env(3, 9, b"x")).unwrap();
        let got = mb.match_or_post(None, None).unwrap();
        assert_eq!(got.src, 3);
        assert_eq!(got.tag, 9);
    }

    #[test]
    fn non_matching_messages_are_skipped() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, b"wrong-tag")).unwrap();
        mb.deliver(env(0, 2, b"right")).unwrap();
        let got = mb.match_or_post(Some(0), Some(2)).unwrap();
        assert_eq!(payload(&got), b"right");
        // The skipped message is still there.
        assert_eq!(mb.unexpected_len(), 1);
    }

    #[test]
    fn posted_receive_completed_by_delivery() {
        let mb = Arc::new(Mailbox::new());
        let (slot, _) = mb.match_or_post(Some(2), None).unwrap_err();
        assert!(!slot.is_ready());
        mb.deliver(env(2, 4, b"hello")).unwrap();
        let got = slot.wait_timeout(Duration::ZERO).expect("delivered");
        assert_eq!(payload(&got), b"hello");
        assert_eq!(mb.unexpected_len(), 0);
    }

    #[test]
    fn earliest_posted_receive_wins() {
        let mb = Mailbox::new();
        let (slot_a, _) = mb.match_or_post(None, None).unwrap_err();
        let (slot_b, _) = mb.match_or_post(None, None).unwrap_err();
        mb.deliver(env(0, 0, b"for-a")).unwrap();
        assert!(slot_a.is_ready());
        assert!(!slot_b.is_ready());
    }

    #[test]
    fn cross_thread_blocking_receive() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || match mb2.match_or_post(None, Some(3)) {
            Ok(e) => e,
            Err((slot, _)) => slot
                .wait_timeout(Duration::from_secs(10))
                .expect("delivered"),
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.deliver(env(5, 3, b"late")).unwrap();
        let got = h.join().unwrap();
        assert_eq!(payload(&got), b"late");
    }

    #[test]
    fn timed_receive_expires_and_cancels() {
        let mb = Mailbox::new();
        let (slot, id) = mb.match_or_post(Some(0), Some(0)).unwrap_err();
        assert!(slot.wait_timeout(Duration::from_millis(30)).is_none());
        assert!(mb.cancel_posted(id));
        // Late delivery now goes to unexpected instead of the dead slot.
        mb.deliver(env(0, 0, b"late")).unwrap();
        assert_eq!(mb.unexpected_len(), 1);
    }

    #[test]
    fn closed_mailbox_rejects_delivery() {
        let mb = Mailbox::new();
        mb.close();
        let err = mb.deliver(env(4, 0, b"x")).unwrap_err();
        assert_eq!(err, MpiError::PeerGone { rank: 4 });
    }

    #[test]
    fn rendezvous_handoff() {
        let rv = Rendezvous::new(Bytes::from_static(b"big payload"));
        assert!(!rv.is_taken());
        let rv2 = rv.clone();
        let sender = std::thread::spawn(move || rv2.wait_taken_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(10));
        let data = rv.take();
        assert_eq!(&data[..], b"big payload");
        assert!(sender.join().unwrap(), "the sender saw the claim");
        assert!(rv.is_taken());
    }
}
