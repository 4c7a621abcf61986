//! The one collective MPI-D calls: `MPI_Barrier`, which `MPI_D_Finalize`
//! runs after its shutdown audit. It is built over the point-to-point
//! layer with the dissemination algorithm.
//!
//! Every rank of the communicator must call it, the same number of times
//! (the standard MPI contract). Each call consumes one tag from the
//! reserved internal range, so concurrent user point-to-point traffic
//! (tags `0..=MAX_USER_TAG`) can never match barrier messages.

use crate::comm::{wire_sig, Comm, SendMode};
use crate::types::{MpiResult, Tag, MAX_USER_TAG};
use crate::verify::LabelGuard;
use bytes::Bytes;

/// Number of distinct internal tags cycled through by barriers.
const COLL_TAG_SPAN: i64 = 1 << 20;

impl Comm {
    /// Allocate the internal tag for the next barrier.
    fn next_coll_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        MAX_USER_TAG + 1 + (seq as i64 % COLL_TAG_SPAN) as Tag
    }

    /// `MPI_Barrier` — dissemination algorithm, ⌈log₂ n⌉ rounds.
    ///
    /// A barrier called after an abort fails at once. In a checked
    /// universe the rank is labelled "inside barrier" in wait-for-graph
    /// reports until it returns.
    pub fn barrier(&self) -> MpiResult<()> {
        if let Some(e) = self.world.abort_error() {
            return Err(e);
        }
        let _label = match self.verifier() {
            Some(v) => {
                v.set_label(self.rank, Some("barrier"));
                Some(LabelGuard {
                    v: v.as_ref(),
                    rank: self.rank,
                })
            }
            None => None,
        };
        let t0 = self.trace_start();
        let out = self.barrier_inner();
        self.trace_coll(obs::names::MPI_BARRIER, t0);
        out
    }

    fn barrier_inner(&self) -> MpiResult<()> {
        let n = self.size();
        let tag = self.next_coll_tag();
        let mut step = 1usize;
        while step < n {
            let dst = (self.rank + step) % n;
            let src = (self.rank + n - step % n) % n;
            // An empty payload always goes eager, so the send never blocks.
            self.post(
                dst,
                tag,
                Bytes::new(),
                wire_sig::<u8>(&[]),
                SendMode::Blocking,
            )?;
            self.recv_internal::<u8>(Some(src), Some(tag))?;
            step <<= 1;
        }
        Ok(())
    }
}
