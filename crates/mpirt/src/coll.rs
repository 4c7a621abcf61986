//! Collective operations, implemented over the point-to-point layer with the
//! classic MPICH algorithms (binomial trees, dissemination, rings, pairwise
//! exchange).
//!
//! All collectives must be invoked by every rank of the communicator, in the
//! same order (the standard MPI contract). Each invocation consumes one tag
//! from the reserved internal range, so concurrent user point-to-point
//! traffic (tags `0..=MAX_USER_TAG`) can never match collective messages.

use crate::comm::{wire_sig, Comm, SendMode, SendRequest};
use crate::data::MpiType;
use crate::types::{MpiResult, Rank, Tag, MAX_USER_TAG};
use crate::verify::{CollSig, LabelGuard};

/// Number of distinct internal tags cycled through by collectives.
const COLL_TAG_SPAN: i64 = 1 << 20;

impl Comm {
    /// Allocate the internal tag for the next collective invocation.
    fn next_coll_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        MAX_USER_TAG + 1 + (seq as i64 % COLL_TAG_SPAN) as Tag
    }

    /// Checker entry hook for a collective: verifies that every rank of the
    /// communicator invokes the same call signature at this `coll_seq` slot
    /// (shared-state comparison, no extra communication), and labels the
    /// rank as "inside `sig.kind`" for wait-for-graph reports until the
    /// returned guard drops. No-op (`None`) in unchecked universes.
    fn coll_enter(&self, sig: CollSig) -> MpiResult<Option<LabelGuard<'_>>> {
        match self.verifier() {
            Some(v) => {
                let kind = sig.kind;
                v.check_collective(
                    self.world_rank(),
                    self.ctx,
                    self.coll_seq.get(),
                    self.size(),
                    sig,
                )?;
                v.set_label(self.world_rank(), Some(kind));
                Ok(Some(LabelGuard {
                    v: v.as_ref(),
                    rank: self.world_rank(),
                }))
            }
            None => Ok(None),
        }
    }

    /// Post a send on a reserved collective tag.
    fn coll_post<T: MpiType>(
        &self,
        dst: Rank,
        tag: Tag,
        data: &[T],
        mode: SendMode,
    ) -> MpiResult<SendRequest> {
        self.post(dst, tag, T::to_bytes(data), wire_sig(data), mode)
    }

    fn coll_send<T: MpiType>(&self, dst: Rank, tag: Tag, data: &[T]) -> MpiResult<()> {
        self.coll_post(dst, tag, data, SendMode::Blocking).map(drop)
    }

    /// Send `data` to `dst` without blocking, receive from `src`, then
    /// complete the send.
    fn coll_sendrecv<T: MpiType>(
        &self,
        dst: Rank,
        src: Rank,
        tag: Tag,
        data: &[T],
    ) -> MpiResult<Vec<T>> {
        let req = self.coll_post(dst, tag, data, SendMode::Immediate)?;
        let (got, _) = self.recv_internal::<T>(Some(src), Some(tag))?;
        req.wait();
        Ok(got)
    }

    /// `MPI_Barrier` — dissemination algorithm, ⌈log₂ n⌉ rounds.
    pub fn barrier(&self) -> MpiResult<()> {
        let _label = self.coll_enter(CollSig::plain("barrier"))?;
        let t0 = self.trace_start();
        let out = self.barrier_inner();
        self.trace_coll(obs::names::MPI_BARRIER, t0);
        out
    }

    fn barrier_inner(&self) -> MpiResult<()> {
        let n = self.size();
        let tag = self.next_coll_tag();
        if n == 1 {
            return Ok(());
        }
        let mut step = 1usize;
        while step < n {
            let dst = (self.rank + step) % n;
            let src = (self.rank + n - step % n) % n;
            self.coll_sendrecv::<u8>(dst, src, tag, &[])?;
            step <<= 1;
        }
        Ok(())
    }

    /// `MPI_Bcast` — binomial tree from `root`. On non-root ranks the
    /// contents of `buf` are replaced.
    pub fn bcast<T: MpiType>(&self, root: Rank, buf: &mut Vec<T>) -> MpiResult<()> {
        let _label = self.coll_enter(CollSig {
            kind: "bcast",
            root: Some(root),
            elem: Some(T::NAME),
            op: None,
        })?;
        let t0 = self.trace_start();
        let out = self.bcast_inner(root, buf);
        self.trace_coll(obs::names::MPI_BCAST, t0);
        out
    }

    fn bcast_inner<T: MpiType>(&self, root: Rank, buf: &mut Vec<T>) -> MpiResult<()> {
        let n = self.size();
        let tag = self.next_coll_tag();
        if n == 1 {
            return Ok(());
        }
        let relative = (self.rank + n - root % n) % n;
        // Receive from parent (unless root).
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = (self.rank + n - mask) % n;
                let (data, _) = self.recv_internal::<T>(Some(src), Some(tag))?;
                *buf = data;
                break;
            }
            mask <<= 1;
        }
        // Forward to children.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = (self.rank + mask) % n;
                self.coll_send(dst, tag, buf)?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// `MPI_Reduce` with a commutative element-wise operator — binomial
    /// tree. Returns `Some(result)` at `root`, `None` elsewhere.
    ///
    /// All ranks must pass slices of the same length.
    pub fn reduce<T: MpiType, F: Fn(T, T) -> T>(
        &self,
        root: Rank,
        sendbuf: &[T],
        op: F,
    ) -> MpiResult<Option<Vec<T>>> {
        let _label = self.coll_enter(CollSig {
            kind: "reduce",
            root: Some(root),
            elem: Some(T::NAME),
            op: Some(std::any::type_name::<F>()),
        })?;
        let t0 = self.trace_start();
        let out = self.reduce_inner(root, sendbuf, op);
        self.trace_coll(obs::names::SPAN_REDUCE, t0);
        out
    }

    fn reduce_inner<T: MpiType, F: Fn(T, T) -> T>(
        &self,
        root: Rank,
        sendbuf: &[T],
        op: F,
    ) -> MpiResult<Option<Vec<T>>> {
        let n = self.size();
        let tag = self.next_coll_tag();
        let mut acc: Vec<T> = sendbuf.to_vec();
        if n > 1 {
            let relative = (self.rank + n - root % n) % n;
            let mut mask = 1usize;
            while mask < n {
                if relative & mask == 0 {
                    let src_rel = relative | mask;
                    if src_rel < n {
                        let src = (src_rel + root) % n;
                        let (other, _) = self.recv_internal::<T>(Some(src), Some(tag))?;
                        assert_eq!(
                            other.len(),
                            acc.len(),
                            "reduce buffers must have equal length on all ranks"
                        );
                        for (a, b) in acc.iter_mut().zip(other) {
                            *a = op(*a, b);
                        }
                    }
                } else {
                    let dst_rel = relative & !mask;
                    let dst = (dst_rel + root) % n;
                    self.coll_send(dst, tag, &acc)?;
                    return Ok(None);
                }
                mask <<= 1;
            }
        }
        if self.rank == root {
            Ok(Some(acc))
        } else {
            Ok(None)
        }
    }

    /// `MPI_Allreduce` — reduce to rank 0 then broadcast.
    pub fn allreduce<T: MpiType, F: Fn(T, T) -> T>(
        &self,
        sendbuf: &[T],
        op: F,
    ) -> MpiResult<Vec<T>> {
        let _label = self.coll_enter(CollSig {
            kind: "allreduce",
            root: None,
            elem: Some(T::NAME),
            op: Some(std::any::type_name::<F>()),
        })?;
        let t0 = self.trace_start();
        let out = (|| {
            let reduced = self.reduce_inner(0, sendbuf, op)?;
            let mut buf = reduced.unwrap_or_default();
            self.bcast_inner(0, &mut buf)?;
            Ok(buf)
        })();
        self.trace_coll(obs::names::MPI_ALLREDUCE, t0);
        out
    }

    /// `MPI_Gather` (variable-length, i.e. `MPI_Gatherv`): every rank
    /// contributes a slice; `root` receives them indexed by rank.
    pub fn gather<T: MpiType>(&self, root: Rank, sendbuf: &[T]) -> MpiResult<Option<Vec<Vec<T>>>> {
        let _label = self.coll_enter(CollSig {
            kind: "gather",
            root: Some(root),
            elem: Some(T::NAME),
            op: None,
        })?;
        let t0 = self.trace_start();
        let out = self.gather_inner(root, sendbuf);
        self.trace_coll(obs::names::MPI_GATHER, t0);
        out
    }

    fn gather_inner<T: MpiType>(
        &self,
        root: Rank,
        sendbuf: &[T],
    ) -> MpiResult<Option<Vec<Vec<T>>>> {
        let n = self.size();
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
            out[root] = sendbuf.to_vec();
            for (r, slot) in out.iter_mut().enumerate() {
                if r == root {
                    continue;
                }
                let (data, _) = self.recv_internal::<T>(Some(r), Some(tag))?;
                *slot = data;
            }
            Ok(Some(out))
        } else {
            self.coll_send(root, tag, sendbuf)?;
            Ok(None)
        }
    }

    /// `MPI_Allgather` — ring algorithm: n−1 steps, each rank forwards the
    /// block it received in the previous step.
    pub fn allgather<T: MpiType>(&self, sendbuf: &[T]) -> MpiResult<Vec<Vec<T>>> {
        let _label = self.coll_enter(CollSig {
            kind: "allgather",
            root: None,
            elem: Some(T::NAME),
            op: None,
        })?;
        let t0 = self.trace_start();
        let out = self.allgather_inner(sendbuf);
        self.trace_coll(obs::names::MPI_ALLGATHER, t0);
        out
    }

    fn allgather_inner<T: MpiType>(&self, sendbuf: &[T]) -> MpiResult<Vec<Vec<T>>> {
        let n = self.size();
        let tag = self.next_coll_tag();
        let mut blocks: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        blocks[self.rank] = sendbuf.to_vec();
        let right = (self.rank + 1) % n;
        let left = (self.rank + n - 1) % n;
        for step in 0..n.saturating_sub(1) {
            let send_idx = (self.rank + n - step) % n;
            let recv_idx = (self.rank + n - step - 1) % n;
            blocks[recv_idx] = self.coll_sendrecv(right, left, tag, &blocks[send_idx])?;
        }
        Ok(blocks)
    }

    /// `MPI_Scatter` (variable-length): `root` provides one chunk per rank;
    /// every rank receives its chunk.
    ///
    /// # Panics
    /// Panics at the root if `chunks` is `None` or has length ≠ `size()`.
    pub fn scatter<T: MpiType>(
        &self,
        root: Rank,
        chunks: Option<Vec<Vec<T>>>,
    ) -> MpiResult<Vec<T>> {
        let _label = self.coll_enter(CollSig {
            kind: "scatter",
            root: Some(root),
            elem: Some(T::NAME),
            op: None,
        })?;
        let t0 = self.trace_start();
        let out = self.scatter_inner(root, chunks);
        self.trace_coll(obs::names::MPI_SCATTER, t0);
        out
    }

    fn scatter_inner<T: MpiType>(
        &self,
        root: Rank,
        chunks: Option<Vec<Vec<T>>>,
    ) -> MpiResult<Vec<T>> {
        let n = self.size();
        let tag = self.next_coll_tag();
        if self.rank == root {
            let chunks = chunks.expect("root must supply chunks");
            assert_eq!(chunks.len(), n, "one chunk per rank required");
            let mut mine = Vec::new();
            let mut reqs = Vec::new();
            for (r, chunk) in chunks.into_iter().enumerate() {
                if r == root {
                    mine = chunk;
                } else {
                    reqs.push(self.coll_post(r, tag, &chunk, SendMode::Immediate)?);
                }
            }
            for req in reqs {
                req.wait();
            }
            Ok(mine)
        } else {
            let (data, _) = self.recv_internal::<T>(Some(root), Some(tag))?;
            Ok(data)
        }
    }

    /// `MPI_Alltoall` (variable-length): rank `i` sends `send[j]` to rank
    /// `j` and receives rank `j`'s `send[i]`. Pairwise-exchange schedule.
    pub fn alltoall<T: MpiType>(&self, send: Vec<Vec<T>>) -> MpiResult<Vec<Vec<T>>> {
        let _label = self.coll_enter(CollSig {
            kind: "alltoall",
            root: None,
            elem: Some(T::NAME),
            op: None,
        })?;
        let t0 = self.trace_start();
        let out = self.alltoall_inner(send);
        self.trace_coll(obs::names::MPI_ALLTOALL, t0);
        out
    }

    fn alltoall_inner<T: MpiType>(&self, send: Vec<Vec<T>>) -> MpiResult<Vec<Vec<T>>> {
        let n = self.size();
        assert_eq!(send.len(), n, "alltoall needs one block per rank");
        let tag = self.next_coll_tag();
        let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        out[self.rank] = send[self.rank].clone();
        for step in 1..n {
            let dst = (self.rank + step) % n;
            let src = (self.rank + n - step) % n;
            out[src] = self.coll_sendrecv(dst, src, tag, &send[dst])?;
        }
        Ok(out)
    }

    /// `MPI_Reduce_scatter_block`: elementwise-reduce `n × block` elements
    /// across all ranks, then scatter block `i` to rank `i`. Implemented as
    /// reduce-then-scatter (the small-message MPICH strategy).
    ///
    /// # Panics
    /// Panics unless `sendbuf.len() == size() * block`.
    pub fn reduce_scatter<T: MpiType, F: Fn(T, T) -> T>(
        &self,
        sendbuf: &[T],
        block: usize,
        op: F,
    ) -> MpiResult<Vec<T>> {
        let _label = self.coll_enter(CollSig {
            kind: "reduce_scatter",
            root: None,
            elem: Some(T::NAME),
            op: Some(std::any::type_name::<F>()),
        })?;
        let t0 = self.trace_start();
        let out = self.reduce_scatter_inner(sendbuf, block, op);
        self.trace_coll(obs::names::MPI_REDUCE_SCATTER, t0);
        out
    }

    fn reduce_scatter_inner<T: MpiType, F: Fn(T, T) -> T>(
        &self,
        sendbuf: &[T],
        block: usize,
        op: F,
    ) -> MpiResult<Vec<T>> {
        let n = self.size();
        assert_eq!(sendbuf.len(), n * block, "reduce_scatter buffer size");
        let reduced = self.reduce_inner(0, sendbuf, op)?;
        let chunks = reduced.map(|full| {
            let mut chunks: Vec<Vec<T>> = Vec::with_capacity(n);
            let mut rest = full;
            for _ in 0..n {
                let tail = rest.split_off(block);
                chunks.push(rest);
                rest = tail;
            }
            chunks
        });
        self.scatter_inner(0, chunks)
    }

    /// `MPI_Exscan` — exclusive prefix reduction: rank `r` receives the
    /// fold of ranks `0..r` (rank 0 gets `None`).
    pub fn exscan<T: MpiType, F: Fn(T, T) -> T>(
        &self,
        sendbuf: &[T],
        op: F,
    ) -> MpiResult<Option<Vec<T>>> {
        let _label = self.coll_enter(CollSig {
            kind: "exscan",
            root: None,
            elem: Some(T::NAME),
            op: Some(std::any::type_name::<F>()),
        })?;
        let t0 = self.trace_start();
        let out = self.exscan_inner(sendbuf, op);
        self.trace_coll(obs::names::MPI_EXSCAN, t0);
        out
    }

    fn exscan_inner<T: MpiType, F: Fn(T, T) -> T>(
        &self,
        sendbuf: &[T],
        op: F,
    ) -> MpiResult<Option<Vec<T>>> {
        let tag = self.next_coll_tag();
        let prev: Option<Vec<T>> = if self.rank > 0 {
            let (p, _) = self.recv_internal::<T>(Some(self.rank - 1), Some(tag))?;
            Some(p)
        } else {
            None
        };
        if self.rank + 1 < self.size() {
            // Forward the inclusive fold of 0..=rank.
            let next: Vec<T> = match &prev {
                None => sendbuf.to_vec(),
                Some(p) => p.iter().zip(sendbuf).map(|(&a, &b)| op(a, b)).collect(),
            };
            self.coll_send(self.rank + 1, tag, &next)?;
        }
        Ok(prev)
    }

    /// `MPI_Scan` — inclusive prefix reduction (linear chain).
    pub fn scan<T: MpiType, F: Fn(T, T) -> T>(&self, sendbuf: &[T], op: F) -> MpiResult<Vec<T>> {
        let _label = self.coll_enter(CollSig {
            kind: "scan",
            root: None,
            elem: Some(T::NAME),
            op: Some(std::any::type_name::<F>()),
        })?;
        let t0 = self.trace_start();
        let out = self.scan_inner(sendbuf, op);
        self.trace_coll(obs::names::MPI_SCAN, t0);
        out
    }

    fn scan_inner<T: MpiType, F: Fn(T, T) -> T>(&self, sendbuf: &[T], op: F) -> MpiResult<Vec<T>> {
        let tag = self.next_coll_tag();
        let mut acc: Vec<T> = sendbuf.to_vec();
        if self.rank > 0 {
            let (prev, _) = self.recv_internal::<T>(Some(self.rank - 1), Some(tag))?;
            assert_eq!(prev.len(), acc.len(), "scan buffers must match in length");
            for (a, p) in acc.iter_mut().zip(prev) {
                *a = op(p, *a);
            }
        }
        if self.rank + 1 < self.size() {
            self.coll_send(self.rank + 1, tag, &acc)?;
        }
        Ok(acc)
    }

    // ----- communicator management -----

    /// `MPI_Comm_split`: ranks with equal `color` form a new communicator,
    /// ordered by `(key, old rank)`. A negative color returns `None`
    /// (`MPI_UNDEFINED`).
    pub fn split(&self, color: i64, key: i64) -> MpiResult<Option<Comm>> {
        // Note: `color`/`key` legitimately differ across ranks, so only the
        // collective kind is part of the checked signature.
        let _label = self.coll_enter(CollSig::plain("split"))?;
        let t0 = self.trace_start();
        let out = self.split_inner(color, key);
        self.trace_coll(obs::names::MPI_SPLIT, t0);
        out
    }

    fn split_inner(&self, color: i64, key: i64) -> MpiResult<Option<Comm>> {
        let me = [color, key, self.rank as i64];
        let all = self.allgather_inner(&me)?;
        // Derive the new context id deterministically and identically on all
        // ranks: hash of (parent ctx, collective seq, color).
        let seq = self.coll_seq.get(); // advanced by the allgather above
        let new_ctx = fnv_mix(self.ctx, seq, color);
        if color < 0 {
            return Ok(None);
        }
        let mut members: Vec<(i64, usize)> = all
            .iter()
            .filter(|triple| triple[0] == color)
            .map(|triple| (triple[1], triple[2] as usize))
            .collect();
        members.sort_unstable();
        let new_group: Vec<Rank> = members
            .iter()
            .map(|&(_, old_rank)| self.group[old_rank])
            .collect();
        let my_new_rank = members
            .iter()
            .position(|&(_, old)| old == self.rank)
            .expect("self must be in its own color group");
        Ok(Some(Comm {
            world: self.world.clone(),
            ctx: new_ctx,
            group: std::sync::Arc::new(new_group),
            rank: my_new_rank,
            coll_seq: std::cell::Cell::new(0),
            trace: self.trace.clone(),
        }))
    }

    /// `MPI_Comm_dup`: same group, fresh context (traffic is isolated from
    /// the parent).
    pub fn dup(&self) -> MpiResult<Comm> {
        // A barrier keeps the collective sequence aligned and gives every
        // rank the same seq for context derivation.
        let _label = self.coll_enter(CollSig::plain("dup"))?;
        let t0 = self.trace_start();
        let seq = self.coll_seq.get();
        self.barrier_inner()?;
        let out = Comm {
            world: self.world.clone(),
            ctx: fnv_mix(self.ctx, seq, -7),
            group: self.group.clone(),
            rank: self.rank,
            coll_seq: std::cell::Cell::new(0),
            trace: self.trace.clone(),
        };
        self.trace_coll(obs::names::MPI_DUP, t0);
        Ok(out)
    }
}

/// Deterministic 64-bit mix for deriving child context ids.
fn fnv_mix(ctx: u64, seq: u64, color: i64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for chunk in [ctx, seq, color as u64] {
        for b in chunk.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    // Avoid colliding with the world context.
    h | (1 << 63)
}
