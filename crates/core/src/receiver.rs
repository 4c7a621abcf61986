//! The reducer-side `MPI_D_Recv` pipeline (paper Figure 4, right half):
//! wildcard reception of frames from any mapper, reverse realignment, and
//! sort-merge grouping of each key's value lists.
//!
//! One handle, [`MpidReceiver`], and one pull call, [`MpidReceiver::recv`],
//! drain in one of three states:
//!
//! * **grouped** (the default): every frame is held, their key indexes
//!   merge once, and each call decodes the one group it returns;
//! * **bounded** ([`MpidConfig::mem_budget`], or
//!   [`MpidReceiver::into_external`]): frames buffer up to a byte budget,
//!   each full window merges into one disk run of key-sorted frames per
//!   source rank, and groups stream out of a k-way merge by raw key
//!   ([`crate::extmerge`]) over the runs, read back a frame at a time, and
//!   the last window, held in memory with its pool charge — the same
//!   groups, in the same order, as the grouped drain;
//! * **streaming** ([`MpidReceiver::into_streaming`], the paper's "streaming
//!   mode to process the data for saving memory space"): one frame at a
//!   time, its groups as framed, so a key comes once per frame that carried
//!   it and the consumer must fold with an associative operation.
//!
//! Frames arrive as refcounted [`Bytes`] straight off the transport (a
//! plain frame's body is read in place, past its wire marker; an LZ frame
//! is decompressed into a buffer from the free list of [`crate::pool`]).
//! Each frame body is indexed into
//! per-group byte ranges ([`parse_group_index_raw`]) as it arrives, and,
//! outside streaming, the held frames go through *one* merge (`Merged`) at
//! end of stream. Nothing has been decoded by then, and no table is ever
//! built: the merged index over the held frames is the receiver's product,
//! and each [`MpidReceiver::recv`] decodes the one group it returns — the
//! equal-key span at a cursor (`Groups`). The bounded path's window spills
//! walk the same spans, its last window is pulled span by span by the disk
//! merge, and a streamed frame is walked by the same cursor, one group a
//! span. All of it runs on the reducer's own thread: the receiver does not
//! read [`MpidConfig::threads`].
//!
//! ## Raw-key merge
//!
//! The sender sorts; the receiver only merges. Every frame from an MPI-D
//! sender is key-sorted already (every spill leaves the sender in key
//! order, see [`crate::sender`]), so no frame is sorted on arrival. The
//! merge indexes the groups of the held frames in the order values must
//! come out — (mapper rank, send order): frames are grouped by source rank
//! first, so the scheduler-dependent interleaving of *frame arrival* across
//! mappers never reaches the output — and stably sorts that one index.
//! std's merge sort finds the k sorted frames as k presorted runs and
//! merges them in about log k comparisons per entry, whatever k is, and
//! stability is the value-order guarantee. Nothing on the wire vouches for
//! the order, and nothing has to: a frame out of key order is merged as
//! correctly, only more slowly.
//!
//! No key is decoded to be compared. The index holds 16-byte [`KeyRef`]s,
//! each with the key's [`encoded_prefix`](crate::kv::Key::encoded_prefix)
//! inline: comparing two entries is comparing two registers, and only a tie
//! on a prefix that is not [a whole key](crate::kv::Key::prefix_is_exact)
//! follows the entries into the frame bytes
//! ([`encoded_cmp`](crate::kv::Key::encoded_cmp)). Equal keys then sit next
//! to each other: a span's key is decoded *once*, from its first entry, and
//! its values once, straight into an exact-capacity `Vec`, when the drain
//! reaches it.
//!
//! ## Memory
//!
//! Frame buffering charges the job's [`BlockPool`](crate::pool::BlockPool)
//! when one is configured, for as long as the frames are held: to the end
//! of the stream (of the frame, when streaming), an error, or the drop of a
//! half-drained receiver. The grouped drain charges the whole shuffle and
//! the streaming drain one frame. The bounded drain buffers frames until
//! the *next* frame would exceed the budget (charges are taken before
//! buffering, so `high_water` stays at or under the budget), then writes
//! the window out as one pre-sorted disk run per source rank. The disk
//! merge lists its sources in (rank, window) order, each rank's share of
//! the last window last among its own, and collects an equal key's values
//! source by source: the budget changes how much is held, never what comes
//! out — the bounded drain delivers, byte for byte, what the grouped one
//! does.
//!
//! A frame's buffer goes back to the process's free list ([`crate::pool`])
//! when the receiver drops the frame: at the end of a grouped drain, per
//! frame when streaming, with a spilled window, or with a half-drained
//! receiver. The sender's next frames, in this job or the next, are built
//! in it.

use crate::config::{tags, MpidConfig};
use crate::error::{MpidError, MpidResult};
use crate::extmerge::{ExtMergeError, ExternalTable, MergeIter, RawSource, Source};
use crate::kv::{CodecError, Key, Value};
use crate::pool::{PoolCharge, Takes};
use crate::realign::{
    fits_single_valued, parse_group_index_raw, KeyRef, RawGroup, MARKER_LZ, MARKER_PLAIN,
};
use crate::stats::ReceiverStats;
use bytes::Bytes;
use mpi_rt::{Comm, Rank};
use obs::ArgValue;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Duration;

/// Reducer-side handle, in one of the three drain states of the
/// [module docs](self).
///
/// "Each reducer adopts the MPI_Recv primitive in the wildcard reception
/// style to receive messages from any source. Multiple data flows in
/// mappers' partitions are sent to the corresponding reducer concurrently,
/// while reducers receive and combine them in memory."
pub struct MpidReceiver<'a, K: Key, V: Value> {
    comm: &'a Comm,
    cfg: MpidConfig,
    /// Opt-in bound on the wait for the next frame (`None`: untimed).
    timeout: Option<Duration>,
    value_sorter: Option<fn(&mut Vec<V>)>,
    state: RecvState<K, V>,
    stats: ReceiverStats,
    /// End-of-stream markers received so far.
    eos_seen: usize,
    /// Disk runs the bounded drain spilled.
    spilled_runs: usize,
    /// When the drain began, on a traced rank.
    drain_t0: Option<u64>,
}

enum RecvState<K: Key, V: Value> {
    Ingesting,
    /// Grouped: the merged index over every frame.
    Draining(Groups<K, V>),
    /// Bounded: the k-way merge over the disk runs and the last window.
    DrainingExt(Box<MergeIter<K, V, MpidError>>),
    /// Streaming: the frame at hand, its groups as framed; the next frame
    /// is received when it runs out.
    Streaming(Groups<K, V>),
    /// End of stream, or an error: nothing more is delivered.
    Done,
}

/// One received frame, held as bytes: the buffer that holds its body and
/// its groups' byte ranges. Holds no decoded key, so the merged index is
/// `Send` whatever `K` is. Dropping it returns the buffer to the free list
/// ([`crate::pool`]) when it holds the last handle.
struct Frame {
    /// The wire frame as it arrived, body behind its marker, or the body a
    /// compressed frame inflated to. Kept whole, so that the buffer goes
    /// back to the free list without a copy.
    buf: Bytes,
    /// Where the body starts in `buf`.
    at: usize,
    /// The body's groups, their offsets into `buf` rather than the body,
    /// so that reading a group slices the buffer once.
    raw: Vec<RawGroup>,
    /// Sender rank, for attributing late decode errors.
    src: Rank,
    /// The free-list class `buf` goes back to: the job's frame size.
    class: usize,
}

impl Frame {
    /// Index the body at `buf[at..]`, a frame from `src`.
    fn index<K: Key, V: Value>(
        buf: Bytes,
        at: usize,
        src: Rank,
        class: usize,
    ) -> Result<Self, CodecError> {
        if buf.len() > u32::MAX as usize {
            return Err(CodecError::Corrupt("frame body exceeds u32 indexing"));
        }
        let mut raw = parse_group_index_raw::<K, V>(&buf[at..])?;
        let shift = at as u32;
        for g in &mut raw {
            g.key_off += shift;
            g.key_end += shift;
            g.val_off += shift;
            g.val_end += shift;
        }
        Ok(Frame {
            buf,
            at,
            raw,
            src,
            class,
        })
    }

    fn body_len(&self) -> usize {
        self.buf.len() - self.at
    }

    fn key_bytes(&self, e: &KeyRef) -> &[u8] {
        self.raw[e.group as usize].key_bytes(&self.buf)
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        crate::pool::recycle(self.class, std::mem::take(&mut self.buf));
    }
}

/// Bytes from `source_rank` that failed to decode, as every drain reports
/// them.
fn codec_err(source_rank: Rank) -> impl Fn(CodecError) -> MpidError + Copy {
    move |err| MpidError::Codec { source_rank, err }
}

/// Key order of two index entries over `frames`: the prefixes decide, and
/// only a tie on a prefix that is not a whole key compares the encoded
/// bytes.
fn key_order<K: Key>(frames: &[Frame], a: &KeyRef, b: &KeyRef) -> Ordering {
    a.prefix.cmp(&b.prefix).then_with(|| {
        if K::prefix_is_exact(a.prefix) {
            Ordering::Equal
        } else {
            let key_bytes = |e: &KeyRef| frames[e.run as usize].key_bytes(e);
            K::encoded_cmp(key_bytes(a), key_bytes(b))
        }
    })
}

impl<'a, K: Key, V: Value> MpidReceiver<'a, K, V> {
    pub(crate) fn new(comm: &'a Comm, cfg: MpidConfig) -> Self {
        MpidReceiver {
            comm,
            cfg,
            timeout: None,
            value_sorter: None,
            state: RecvState::Ingesting,
            stats: ReceiverStats::default(),
            eos_seen: 0,
            spilled_runs: 0,
            drain_t0: None,
        }
    }

    /// Opt-in failure detector: report [`mpi_rt::MpiError::Timeout`] when
    /// the next frame takes longer than `t`. `None`, the default, waits
    /// untimed, in the checker's wait-for graph. A dead mapper needs no
    /// timeout: a rank that panics aborts the universe, and the wait fails
    /// at once with [`mpi_rt::MpiError::RankLost`].
    pub fn with_timeout(mut self, t: impl Into<Option<Duration>>) -> Self {
        self.timeout = t.into();
        self
    }

    /// Sort each delivered value list before handing it out ("it can also
    /// sort the value list for each key on demand"), in every drain state.
    pub fn with_sorted_values(mut self) -> Self
    where
        V: Ord,
    {
        #[allow(clippy::ptr_arg)] // must match the stored fn-pointer type
        fn sorter<V: Ord>(vs: &mut Vec<V>) {
            vs.sort();
        }
        self.value_sorter = Some(sorter::<V>);
        self
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }

    /// Disk runs the bounded drain spilled, one per source rank per window
    /// (0 in the other states).
    pub fn spilled_runs(&self) -> usize {
        self.spilled_runs
    }

    /// The next data frame from any mapper, its groups indexed, or `None`
    /// once every mapper's end-of-stream marker is in. Plain frames are a
    /// zero-copy slice of the transport buffer.
    #[inline(never)] // as for `ingest`
    fn next_frame(&mut self) -> MpidResult<Option<Frame>> {
        while self.eos_seen < self.cfg.n_mappers {
            // Wildcard source, but tag-filtered to the MPI-D data stream: an
            // unrestricted wildcard would intercept collective traffic (e.g.
            // another rank's early `MPI_D_Finalize` barrier).
            let (payload, status) =
                self.comm
                    .recv_bytes_timeout(None, Some(tags::DATA), self.timeout)?;
            if payload.is_empty() {
                self.eos_seen += 1; // end-of-stream (real frames are never empty)
                continue;
            }
            self.stats.frames += 1;
            self.stats.bytes_received += payload.len() as u64;
            let (codec_err, class) = (codec_err(status.source), self.cfg.frame_bytes);
            let (buf, at) = match payload[0] {
                MARKER_PLAIN => (payload, 1),
                MARKER_LZ => {
                    let mut body = Vec::from(Takes::default().take(class));
                    let inflated = crate::compress::decompress_into(&payload[1..], &mut body);
                    crate::pool::recycle(class, payload);
                    inflated.map_err(codec_err)?;
                    (Bytes::from(body), 0)
                }
                _ => return Err(codec_err(CodecError::Corrupt("unknown frame marker"))),
            };
            let frame = Frame::index::<K, V>(buf, at, status.source, class).map_err(codec_err)?;
            self.stats.groups_in += frame.raw.len() as u64;
            return Ok(Some(frame));
        }
        Ok(None)
    }

    /// Receive every frame and merge them in (mapper rank, send order):
    /// with no `window` budget into one index over all
    /// of them; with one, spilling each window that would overflow the
    /// budget as one pre-sorted disk run per source rank under the given
    /// directory, and merging those runs with the last window's frames.
    // Runs once per job. Out of line so that the size of the merge does not
    // sway how a caller's rank closure — the mapper's loop included — gets
    // compiled: inlined, `wc_zipf_1x1_*` measured 9 % slower end to end
    // with not one changed instruction in the sender.
    #[inline(never)]
    fn ingest(&mut self, window: Option<(usize, PathBuf)>) -> MpidResult<RecvState<K, V>> {
        let t0 = self.comm.trace().map(|rt| rt.now_ns());
        // With no window budget there is no table to spill to: the window
        // holds every frame through the drain, and the charge records that
        // honestly (`forced` counts any budget overrun).
        let budget = window.as_ref().map_or(usize::MAX, |(budget, _)| *budget);
        let mut table = (window.map(|(budget, dir)| ExternalTable::new(budget, dir)))
            .transpose()
            .map_err(spill_err)?;
        let mut charge = PoolCharge::new(self.cfg.pool.clone());
        let mut frames: Vec<Frame> = Vec::new();
        // The source rank of each disk run, in spill order.
        let mut run_ranks: Vec<Rank> = Vec::new();
        let (mut window_bytes, mut window_high_water) = (0usize, 0usize);
        while let Some(frame) = self.next_frame()? {
            let b = frame.body_len();
            // Charge *before* buffering: a frame that doesn't fit spills the
            // current window first, so the pool's high-water mark stays at or
            // under the budget unless a single frame alone exceeds it or
            // there is no table (a forced charge).
            if !(window_bytes + b <= budget && charge.try_grow(b)) {
                if let Some(table) = table.as_mut().filter(|_| !frames.is_empty()) {
                    for (src, frames) in by_rank(std::mem::take(&mut frames)) {
                        spill_run(table, frames).map_err(spill_err)?;
                        run_ranks.push(src);
                    }
                    window_bytes = 0;
                    charge.clear();
                }
                if !charge.try_grow(b) {
                    charge.grow(b);
                }
            }
            window_bytes += b;
            window_high_water = window_high_water.max(window_bytes);
            frames.push(frame);
        }
        let Some(table) = table else {
            let groups = Groups::new(merge_by_rank::<K>(frames), charge);
            self.trace_merge(t0, None, self.stats.bytes_received, 0);
            return Ok(RecvState::Draining(groups));
        };
        // The merge's sources in (rank, window) order: each rank's disk runs,
        // then its share of the last window, pulled span by span with its
        // share of the window's charge. The merge collects an equal key's
        // values source by source, so they come out in (mapper rank, send
        // order), as from the unbounded merge. Every source names its rank
        // in a decode error.
        let mut sources = BTreeMap::<Rank, Vec<Source<K, V, MpidError>>>::new();
        for (i, &src) in run_ranks.iter().enumerate() {
            let run = table
                .open_run(i)
                .map_err(spill_err)?
                .map_err(move |e| match e {
                    ExtMergeError::Io(e) => spill_err(e),
                    ExtMergeError::Codec(err) => codec_err(src)(err),
                });
            sources.entry(src).or_default().push(Box::new(run));
        }
        for (src, frames) in by_rank(frames) {
            let held = frames.iter().map(Frame::body_len).sum();
            let groups = Groups::new(Merged::new::<K>(frames), charge.split_off(held));
            sources
                .entry(src)
                .or_default()
                .push(Box::new(Window { groups, head: 0 }));
        }
        self.spilled_runs = table.spilled_runs();
        let (runs, disk) = (Some(self.spilled_runs), table.spilled_bytes());
        self.trace_merge(t0, runs, window_high_water as u64, disk);
        let merge = table.into_merge_of(sources.into_values().flatten().collect());
        Ok(RecvState::DrainingExt(Box::new(merge)))
    }

    /// Enter a drain state; a traced rank's `drain` span starts here.
    fn start_drain(&mut self, state: RecvState<K, V>) {
        self.state = state;
        self.drain_t0 = self.comm.trace().map(|rt| rt.now_ns());
    }

    fn assert_ingesting(&self, switch: &str) {
        assert!(
            matches!(self.state, RecvState::Ingesting),
            "{switch} after recv() started grouping"
        );
    }

    /// Switch to the bounded drain with a window of `budget_bytes` spilling
    /// under `spill_dir` — the reducer-side external merge Hadoop performs
    /// when reduce inputs exceed memory; [`MpidConfig::mem_budget`] selects
    /// the same drain, under the system temporary directory, on the first
    /// [`recv`](Self::recv). Eager: every frame is ingested here, so an
    /// error here is an ingest or spill-write error.
    pub fn into_external(mut self, budget_bytes: usize, spill_dir: PathBuf) -> MpidResult<Self> {
        self.assert_ingesting("into_external");
        let state = self.ingest(Some((budget_bytes, spill_dir)))?;
        self.start_drain(state);
        Ok(self)
    }

    /// Switch to the streaming drain: [`recv`](Self::recv) yields groups as
    /// frames arrive, exactly as they were framed and **without** global
    /// grouping — the same key may come several times (once per spill that
    /// carried it), so the consumer must fold with an associative,
    /// commutative operation. Memory use is bounded by one frame instead of
    /// the whole key space.
    pub fn into_streaming(mut self) -> Self {
        self.assert_ingesting("into_streaming");
        let no_frame = Groups::new(Merged::default(), PoolCharge::new(None));
        self.start_drain(RecvState::Streaming(no_frame));
        self
    }

    /// `MPI_D_Recv`: return the next `(key, value-list)` group, or `None`
    /// once every group has been delivered.
    ///
    /// The grouped and bounded drains deliver each key once, in ascending
    /// key order; the first call ingests every frame (unless
    /// [`into_external`](Self::into_external) already did). The streaming
    /// drain receives a frame when it needs one and delivers its groups as
    /// framed. In every state a group is decoded by the call that returns
    /// it.
    ///
    /// Malformed framing (lengths, group counts) fails the call that
    /// receives the frame — in the grouped and bounded drains the first
    /// one, before any group is delivered. Malformed content (say, a key
    /// that is not UTF-8) fails the call that reaches that group — in the
    /// bounded drain, the call that reads it back from its rank's disk run
    /// or share of the last window — and every group delivered before it is
    /// intact. Both are [`MpidError::Codec`] naming the sending rank, in
    /// every drain state; [`MpidError::Spill`] is a spill file the bounded
    /// drain could not create, write or read. The receiver is fused: after
    /// `None` or an error every later call returns `Ok(None)`, and the
    /// frames and their pool charge are released at that point (or when a
    /// half-drained receiver is dropped).
    pub fn recv(&mut self) -> MpidResult<Option<(K, Vec<V>)>> {
        let next = self.next_group();
        if let Ok(Some((k, mut vs))) = next {
            if let Some(sort) = self.value_sorter {
                sort(&mut vs);
            }
            self.stats.distinct_keys += 1;
            return Ok(Some((k, vs)));
        }
        self.state = RecvState::Done;
        if let (Some(rt), Some(t0)) = (self.comm.trace(), self.drain_t0.take()) {
            let args = vec![("distinct_keys", ArgValue::U64(self.stats.distinct_keys))];
            rt.complete_since(obs::names::SPAN_DRAIN, obs::names::CAT_MPID_STAGE, t0, args);
        }
        next
    }

    /// The next group of the drain, ingesting first if none has begun.
    fn next_group(&mut self) -> MpidResult<Option<(K, Vec<V>)>> {
        loop {
            match &mut self.state {
                RecvState::Ingesting => {
                    let window = self.cfg.mem_budget.map(|b| (b, std::env::temp_dir()));
                    let state = self.ingest(window)?;
                    self.start_drain(state);
                }
                RecvState::Draining(groups) => return groups.next().transpose(),
                RecvState::DrainingExt(merge) => return merge.next_group(),
                RecvState::Streaming(frame) => {
                    if let Some(group) = frame.next() {
                        return group.map(Some);
                    }
                    let Some(frame) = self.next_frame()? else {
                        return Ok(None);
                    };
                    let mut charge = PoolCharge::new(self.cfg.pool.clone());
                    charge.grow(frame.body_len());
                    let groups = Groups::new(Merged::as_framed(frame), charge);
                    self.state = RecvState::Streaming(groups);
                }
                RecvState::Done => return Ok(None),
            }
        }
    }

    /// Drain every remaining group into a vector.
    pub fn recv_all(&mut self) -> MpidResult<Vec<(K, Vec<V>)>> {
        let mut out = Vec::new();
        while let Some(g) = self.recv()? {
            out.push(g);
        }
        Ok(out)
    }

    /// Record the reducer-side "merge" stage span (cat `mpid.stage`) on a
    /// traced rank: wildcard frame reception plus merging the frames' indexes
    /// (or spilling windows), from `t0` to the index being ready, with the
    /// ingest-side [`ReceiverStats`] counters as span args. Also publishes
    /// the receiver's `mpid.mem.*` memory-accounting counters (frame-buffer
    /// high-water, frames decoded, bytes spilled) and the `mpid.mem.pool.*`
    /// pool snapshot when a pool is configured.
    fn trace_merge(&self, t0: Option<u64>, runs: Option<usize>, high_water: u64, spilled: u64) {
        let (Some(rt), Some(t0)) = (self.comm.trace(), t0) else {
            return;
        };
        let stats = &self.stats;
        let mut args = vec![
            ("frames", ArgValue::U64(stats.frames)),
            ("bytes_received", ArgValue::U64(stats.bytes_received)),
            ("groups_in", ArgValue::U64(stats.groups_in)),
        ];
        if let Some(runs) = runs {
            args.push(("spilled_runs", ArgValue::U64(runs as u64)));
        }
        rt.complete_since(obs::names::SPAN_MERGE, obs::names::CAT_MPID_STAGE, t0, args);
        let mut counters = vec![
            (obs::names::CTR_MEM_FRAME_BYTES, high_water),
            (obs::names::CTR_MEM_FRAMES_DECODED, stats.frames),
            (obs::names::CTR_MEM_SPILL_BYTES, spilled),
        ];
        if let Some(pool) = &self.cfg.pool {
            let ps = pool.stats();
            counters.extend(
                [
                    (obs::names::CTR_MEM_POOL_LIVE, ps.live),
                    (obs::names::CTR_MEM_POOL_HIGH_WATER, ps.high_water),
                    (obs::names::CTR_MEM_POOL_BUDGET, ps.budget),
                    (obs::names::CTR_MEM_POOL_FORCED, ps.forced),
                ]
                .map(|(name, n)| (name, n as u64)),
            );
        }
        for (name, value) in counters {
            rt.counter(name, obs::names::CAT_MPID_MEM, value as f64);
        }
    }
}

/// Every group of a set of frames under one key-ordered index — the one
/// merge behind the in-memory table, the bounded path's window spills and
/// its last window. Equal keys sit next to each other in (frame, in-frame)
/// order, so walking [`Merged::spans`] yields each distinct key once with
/// its contributions already in delivery order.
#[derive(Default)]
struct Merged {
    frames: Vec<Frame>,
    index: Vec<KeyRef>,
}

impl Merged {
    /// Merge `frames`, given in the order their values must come out for an
    /// equal key. Their groups are indexed in that order, each entry with
    /// its key's prefix, and the index is stably sorted: std's merge sort
    /// is run-adaptive, so k key-sorted frames cost about log k comparisons
    /// per entry, and stability *is* the value-order guarantee. A frame out
    /// of key order is merged as correctly, only more slowly.
    fn new<K: Key>(frames: Vec<Frame>) -> Self {
        let mut index = Vec::with_capacity(frames.iter().map(|f| f.raw.len()).sum());
        for (run, f) in (0u32..).zip(&frames) {
            index.extend((f.raw.iter().zip(0u32..)).map(|(g, group)| KeyRef {
                prefix: K::encoded_prefix(g.key_bytes(&f.buf)),
                run,
                group,
            }));
        }
        index.sort_by(|a, b| key_order::<K>(&frames, a, b));
        Merged { frames, index }
    }

    /// One frame's groups as framed, each its own span: every entry's
    /// prefix is its position, so no two entries compare equal, whatever
    /// their keys.
    fn as_framed(frame: Frame) -> Self {
        let index = (0..frame.raw.len() as u32)
            .map(|group| KeyRef {
                prefix: group.into(),
                run: 0,
                group,
            })
            .collect();
        Merged {
            frames: vec![frame],
            index,
        }
    }

    fn same_key<K: Key>(&self, a: &KeyRef, b: &KeyRef) -> bool {
        key_order::<K>(&self.frames, a, b).is_eq()
    }

    /// The equal-key span that starts at `index[at]` (a span boundary), or
    /// `None` at the end of the index.
    fn span_at<K: Key>(&self, at: usize) -> Option<&[KeyRef]> {
        let rest = &self.index[at..];
        let first = rest.first()?;
        let n = 1 + rest[1..]
            .iter()
            .take_while(|e| self.same_key::<K>(first, e))
            .count();
        Some(&rest[..n])
    }

    /// The equal-key spans of the index, in key order.
    fn spans<K: Key>(&self) -> impl Iterator<Item = &[KeyRef]> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let span = self.span_at::<K>(at)?;
            at += span.len();
            Some(span)
        })
    }

    fn group(&self, e: &KeyRef) -> (&Frame, &RawGroup) {
        let frame = &self.frames[e.run as usize];
        (frame, &frame.raw[e.group as usize])
    }

    /// How many values a span's groups hold between them.
    fn n_values(&self, span: &[KeyRef]) -> usize {
        span.iter().map(|e| self.group(e).1.n_values as usize).sum()
    }

    /// The encoded key of a span, from its first entry.
    fn span_key(&self, span: &[KeyRef]) -> &[u8] {
        self.frames[span[0].run as usize].key_bytes(&span[0])
    }

    /// Decode one span into its `(key, values)` group: the key once, from
    /// its first entry, each value once, into an exact-capacity list.
    fn decode_span<K: Key, V: Value>(&self, span: &[KeyRef]) -> MpidResult<(K, Vec<V>)> {
        let key = self.decode_key(span)?;
        let mut values: Vec<V> = Vec::with_capacity(self.n_values(span));
        self.decode_values(span, &mut values)?;
        Ok((key, values))
    }

    fn decode_key<K: Key>(&self, span: &[KeyRef]) -> MpidResult<K> {
        let src = self.frames[span[0].run as usize].src;
        K::decode(&mut self.span_key(span)).map_err(codec_err(src))
    }

    fn decode_values<V: Value>(&self, span: &[KeyRef], out: &mut Vec<V>) -> MpidResult<()> {
        for e in span {
            let (frame, g) = self.group(e);
            let mut slice = g.val_bytes(&frame.buf);
            for _ in 0..g.n_values {
                out.push(V::decode(&mut slice).map_err(codec_err(frame.src))?);
            }
        }
        Ok(())
    }
}

/// The receiver's product: `(key, values)` groups in ascending key order,
/// pulled one at a time. Each pull decodes the equal-key span at the cursor;
/// the frames, and the pool charge for them, live until the walk ends.
struct Groups<K, V> {
    merged: Merged,
    cursor: usize,
    charge: PoolCharge,
    _groups: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K: Key, V: Value> Groups<K, V> {
    fn new(merged: Merged, charge: PoolCharge) -> Self {
        Groups {
            merged,
            cursor: 0,
            charge,
            _groups: std::marker::PhantomData,
        }
    }
}

impl<K: Key, V: Value> Iterator for Groups<K, V> {
    type Item = MpidResult<(K, Vec<V>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let span = self.next_span()?;
        Some(self.merged.decode_span(&self.merged.index[span]))
    }
}

impl<K: Key, V: Value> Groups<K, V> {
    /// Step the cursor past the next span and return where it lies in the
    /// index, or release the frames and their charge at the end. Past the
    /// span before it is decoded, so that an error skips its group and no
    /// pull ever delivers one twice.
    fn next_span(&mut self) -> Option<Range<usize>> {
        let Some(span) = self.merged.span_at::<K>(self.cursor) else {
            self.merged = Merged::default();
            self.cursor = 0;
            self.charge.clear();
            return None;
        };
        let at = self.cursor;
        self.cursor += span.len();
        Some(at..self.cursor)
    }
}

/// One rank's share of the bounded drain's last window, as a source of the
/// disk merge: its spans in key order, each the merge's head in turn. The
/// frames and their charge go when the last span has been taken.
struct Window<K, V> {
    groups: Groups<K, V>,
    /// Where the head span starts in the index; it ends at the cursor.
    head: usize,
}

impl<K: Key, V: Value> Window<K, V> {
    fn span(&self) -> &[KeyRef] {
        &self.groups.merged.index[self.head..self.groups.cursor]
    }
}

impl<K: Key, V: Value> RawSource<K, V, MpidError> for Window<K, V> {
    fn advance(&mut self) -> MpidResult<bool> {
        let span = self.groups.next_span();
        self.head = span.as_ref().map_or(0, |span| span.start);
        Ok(span.is_some())
    }

    fn key_bytes(&self) -> &[u8] {
        self.groups.merged.span_key(self.span())
    }

    fn n_values(&self) -> usize {
        self.groups.merged.n_values(self.span())
    }

    fn take_key(&mut self) -> MpidResult<K> {
        self.groups.merged.decode_key(self.span())
    }

    fn take_values(&mut self, out: &mut Vec<V>) -> MpidResult<()> {
        self.groups.merged.decode_values(self.span(), out)
    }
}

/// Frames by source rank, ranks ascending, each rank's in arrival order —
/// its send order, since messages between two ranks stay in order.
/// Wildcard reception interleaves mappers however the scheduler ran them,
/// and an equal key's values come out frame by frame, so arrival order
/// across ranks would leak scheduling into each key's value order.
fn by_rank(frames: Vec<Frame>) -> BTreeMap<Rank, Vec<Frame>> {
    let mut by_rank = BTreeMap::<Rank, Vec<_>>::new();
    for frame in frames {
        by_rank.entry(frame.src).or_default().push(frame);
    }
    by_rank
}

/// The unbounded path's merge: in (mapper rank, send order).
fn merge_by_rank<K: Key>(frames: Vec<Frame>) -> Merged {
    Merged::new::<K>(by_rank(frames).into_values().flatten().collect())
}

/// Merge one rank's frames from one window into a single pre-sorted disk
/// run. Key and value bytes are copied verbatim from the frame bodies — no
/// decode or re-encode, so a key with bad content is found by the `recv()`
/// that reads it back.
fn spill_run<K: Key, V: Value>(
    table: &mut ExternalTable<K, V>,
    frames: Vec<Frame>,
) -> std::io::Result<()> {
    let merged = Merged::new::<K>(frames);
    let spans: Vec<&[KeyRef]> = merged.spans::<K>().collect();
    // The run's layout, picked as `realign_table` picks a partition's:
    // single-valued when every group of the run is.
    let single = (spans.iter())
        .all(|&span| fits_single_valued(merged.span_key(span).len(), merged.n_values(span) as u32));
    let mut rw = table.begin_sorted_run(single)?;
    for span in spans {
        rw.begin_group_raw(merged.span_key(span), merged.n_values(span) as u32);
        for e in span {
            let (frame, g) = merged.group(e);
            rw.push_raw(g.val_bytes(&frame.buf));
        }
        rw.end_group()?;
    }
    rw.finish()
}

/// A spill-file failure, as the bounded drain reports it.
fn spill_err(e: std::io::Error) -> MpidError {
    MpidError::Spill(ExtMergeError::Io(e).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BlockPool;
    use crate::realign::FrameBuilder;
    use crate::{MpidWorld, Role};
    use mpi_rt::{Finding, MpiConfig, Universe};

    /// Merged grouped output: ascending keys, each with its value list.
    type Grouped<K, V> = Vec<(K, Vec<V>)>;

    /// Which drain state a test puts the reducer's receiver in.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Drain {
        /// `recv()` with no `mem_budget`: grouped.
        Unbounded,
        /// `recv()` with this `mem_budget`: bounded.
        Bounded(usize),
        /// `into_external` with this budget: bounded, entered eagerly.
        External(usize),
        /// `into_streaming()`.
        Streaming,
    }

    impl Drain {
        fn mem_budget(self) -> Option<usize> {
            match self {
                Drain::Bounded(b) => Some(b),
                _ => None,
            }
        }

        fn open<K: Key, V: Value>(self, recv: MpidReceiver<'_, K, V>) -> MpidReceiver<'_, K, V> {
            match self {
                Drain::External(b) => recv.into_external(b, std::env::temp_dir()).unwrap(),
                Drain::Streaming => recv.into_streaming(),
                Drain::Unbounded | Drain::Bounded(_) => recv,
            }
        }
    }

    /// One frame body holding `groups` in the order given.
    fn frame<K: Key, V: Value>(groups: &[(K, Vec<V>)]) -> Bytes {
        let mut b = FrameBuilder::new(1 << 20);
        for (k, vs) in groups {
            b.push_group(k, vs);
        }
        // Zero groups: the builder emits nothing, the wire form is the bare count.
        (b.finish().pop()).unwrap_or_else(|| Bytes::from_static(&[0, 0, 0, 0]))
    }

    /// `(source rank, frame)` list, in arrival order, through the unbounded
    /// path's merge, every group pulled from the stream the drain pulls.
    fn merged<K: Key, V: Value>(arrivals: &[(Rank, Bytes)]) -> Grouped<K, V> {
        let frames = arrivals
            .iter()
            .map(|(src, body)| Frame::index::<K, V>(body.clone(), 0, *src, 1 << 20).unwrap())
            .collect();
        let mut groups = Groups::<K, V>::new(merge_by_rank::<K>(frames), PoolCharge::new(None));
        let out = groups.by_ref().collect::<MpidResult<_>>().unwrap();
        assert!(groups.next().is_none() && groups.next().is_none());
        out
    }

    /// A job of `sends.len()` mappers and one reducer over hand-built
    /// frames: mapper `i` ships `sends[i]` in order, then its end-of-stream
    /// marker; `reduce` gets the reducer's receiver in the `drain` state;
    /// every rank goes through `MPI_D_Finalize`, whose leak audit must find
    /// nothing — except, for a streaming drain, what an error left
    /// undelivered at the reducer.
    fn reduce_frames<K: Key, V: Value, R: Send>(
        cfg: MpidConfig,
        drain: Drain,
        sends: &[Vec<Bytes>],
        reduce: impl Fn(MpidReceiver<'_, K, V>) -> R + Send + Sync,
    ) -> R {
        let cfg = MpidConfig {
            n_mappers: sends.len(),
            n_reducers: 1,
            mem_budget: drain.mem_budget(),
            ..cfg
        };
        let reducer = 1 + sends.len();
        let (mut results, report) =
            Universe::run_verified(MpiConfig::default(), reducer + 1, |comm| {
                let world = MpidWorld::init(comm, cfg.clone()).unwrap();
                let out = match world.role() {
                    Role::Master => None,
                    Role::Mapper(i) => {
                        for body in &sends[i] {
                            let wire = [&[MARKER_PLAIN][..], &body[..]].concat();
                            comm.send_bytes(reducer, tags::DATA, wire.into()).unwrap();
                        }
                        comm.send_bytes(reducer, tags::DATA, Bytes::new()).unwrap();
                        None
                    }
                    Role::Reducer(_) => Some(reduce(drain.open(world.receiver()))),
                };
                world.finalize().unwrap();
                out
            })
            .unwrap();
        let undelivered = |f: &Finding| {
            matches!(f, Finding::LeakedEager { to, .. } | Finding::ShutdownLeak { rank: to, .. }
                if *to == reducer)
        };
        let streamed_past_an_error =
            drain == Drain::Streaming && report.findings.iter().all(undelivered);
        assert!(report.is_clean() || streamed_past_an_error, "{report}");
        results.pop().flatten().unwrap()
    }

    fn s(x: &str) -> String {
        x.to_string()
    }

    #[test]
    fn same_key_twice_in_one_frame_keeps_frame_order() {
        let f = frame(&[
            (s("b"), vec![1u64]),
            (s("a"), vec![2]),
            (s("b"), vec![3, 4]),
        ]);
        let got: Grouped<String, u64> = merged(&[(1, f)]);
        assert_eq!(got, vec![(s("a"), vec![2]), (s("b"), vec![1, 3, 4])]);
    }

    #[test]
    fn values_come_out_in_rank_then_send_order_whatever_the_arrival_order() {
        // Rank 1 sends two frames, rank 2 sends two; "k" is in all four.
        let r1a = frame(&[(s("k"), vec![10u64]), (s("only1"), vec![11])]);
        let r1b = frame(&[(s("k"), vec![12u64])]);
        let r2a = frame(&[(s("a"), vec![20u64]), (s("k"), vec![21, 22])]);
        let r2b = frame(&[(s("k"), vec![23u64])]);
        let want = vec![
            (s("a"), vec![20u64]),
            (s("k"), vec![10, 12, 21, 22, 23]),
            (s("only1"), vec![11]),
        ];
        // Per-rank send order is what MPI preserves; ranks interleave freely.
        let arrivals = [
            vec![
                (1, r1a.clone()),
                (1, r1b.clone()),
                (2, r2a.clone()),
                (2, r2b.clone()),
            ],
            vec![
                (2, r2a.clone()),
                (1, r1a.clone()),
                (2, r2b.clone()),
                (1, r1b.clone()),
            ],
            vec![(2, r2a), (2, r2b), (1, r1a), (1, r1b)],
        ];
        for arrival in &arrivals {
            assert_eq!(merged::<String, u64>(arrival), want);
        }
    }

    #[test]
    fn empty_frames_and_no_frames_merge_to_nothing() {
        let empty = frame::<String, u64>(&[]);
        assert!(merged::<String, u64>(&[]).is_empty());
        assert!(merged::<String, u64>(&[(1, empty.clone())]).is_empty());
        let f = frame(&[(s("x"), vec![1u64])]);
        let got: Grouped<String, u64> = merged(&[(1, empty.clone()), (1, f), (2, empty)]);
        assert_eq!(got, vec![(s("x"), vec![1])]);
    }

    #[test]
    fn one_run_and_two_hundred_runs() {
        let single = frame(&[(s("q"), vec![1u64]), (s("p"), vec![2])]);
        let got: Grouped<String, u64> = merged(&[(1, single)]);
        assert_eq!(got, vec![(s("p"), vec![2]), (s("q"), vec![1])]);

        // Run i carries "shared" and its own key; ranks alternate 1, 2.
        let arrivals: Vec<(Rank, Bytes)> = (0..200u64)
            .map(|i| {
                let own = format!("own{i:03}");
                (
                    1 + (i % 2) as Rank,
                    frame(&[(own, vec![i]), (s("shared"), vec![i])]),
                )
            })
            .collect();
        let mut want: Grouped<String, u64> = (0..200u64)
            .map(|i| (format!("own{i:03}"), vec![i]))
            .collect();
        let by_rank = (0..200u64).step_by(2).chain((1..200u64).step_by(2));
        want.push((s("shared"), by_rank.collect()));
        assert_eq!(merged::<String, u64>(&arrivals), want);
    }

    #[test]
    fn keys_that_tie_on_their_prefix_are_still_told_apart() {
        // Same first eight bytes; and short keys that differ by a trailing NUL.
        let keys = [
            "aaaaaaaa2",
            "a\0",
            "aaaaaaaa1",
            "a",
            "aaaaaaaa",
            "a\0\0",
            "",
        ];
        let f1 = frame(&keys.map(|k| (s(k), vec![1u64])));
        let f2 = frame(&keys.map(|k| (s(k), vec![2u64])));
        let mut sorted = keys;
        sorted.sort_unstable();
        let want: Grouped<String, u64> = sorted.iter().map(|k| (s(k), vec![1, 2])).collect();
        assert_eq!(merged::<String, u64>(&[(1, f1), (2, f2)]), want);
    }

    #[test]
    fn integer_and_comparator_less_keys_merge_like_their_ord() {
        let ints = [3i64, -7, i64::MIN, 0, i64::MAX, -7];
        let f = frame(&ints.map(|k| (k, vec![k as u64])));
        let got: Grouped<i64, u64> = merged(&[(1, f.clone()), (2, f)]);
        let keys: Vec<i64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![i64::MIN, -7, 0, 3, i64::MAX]);
        assert_eq!(got[1].1, vec![-7i64 as u64; 4]);

        // Tuples compare component by component, on their encoded bytes.
        let t = |a: &str, b: u64| (s(a), b);
        let f1 = frame(&[
            (t("b", 1), vec![1u64]),
            (t("a", 2), vec![2]),
            (t("a", 1), vec![3]),
        ]);
        let f2 = frame(&[
            (t("a", 2), vec![4u64]),
            (t("b", 1), vec![5]),
            (t("b", 1), vec![6]),
        ]);
        let want = vec![
            (t("a", 1), vec![3u64]),
            (t("a", 2), vec![2, 4]),
            (t("b", 1), vec![1, 5, 6]),
        ];
        let got: Grouped<(String, u64), u64> = merged(&[(2, f2), (1, f1)]);
        assert_eq!(got, want);
    }

    #[test]
    fn a_bad_key_or_value_names_its_source_rank() {
        // Framing is valid, content is not: mapper 2's third group, in key
        // order the job's fourth of seven, is not UTF-8 in its key or value.
        let b = |x: &str| x.as_bytes().to_vec();
        let good = frame(&[(b("a"), vec![b("1")]), (b("e"), vec![b("5")])]);
        let last = frame(&[(b("g"), vec![b("7")])]);
        let bad = |key: Vec<u8>, value: Vec<u8>| {
            frame(&[
                (b("b"), vec![b("2")]),
                (b("f"), vec![b("6")]),
                (key, vec![value]),
                (b("c"), vec![b("3")]),
            ])
        };
        let before = vec![
            (s("a"), vec![s("1")]),
            (s("b"), vec![s("2")]),
            (s("c"), vec![s("3")]),
        ];
        // A budget of one byte spills every frame but the last to arrive,
        // and the bad one is never that: its mapper sends `last` after it.
        for (bad, drain) in [
            (bad(vec![b'd', 0xff], b("4")), Drain::Unbounded),
            (bad(b("d"), vec![0xff, 0xfe]), Drain::Unbounded),
            (bad(b("d"), vec![0xff, 0xfe]), Drain::Bounded(1 << 20)),
            (bad(vec![b'd', 0xff], b("4")), Drain::Bounded(1 << 20)),
            (bad(vec![b'd', 0xff], b("4")), Drain::Bounded(1)),
            (bad(b("d"), vec![0xff, 0xfe]), Drain::Bounded(1)),
            (bad(vec![b'd', 0xff], b("4")), Drain::Streaming),
            (bad(b("d"), vec![0xff, 0xfe]), Drain::Streaming),
        ] {
            let pool = BlockPool::new(1 << 20);
            let cfg = MpidConfig {
                pool: Some(pool.clone()),
                ..Default::default()
            };
            let all_held = good.len() + bad.len() + last.len();
            let bad_len = bad.len();
            let sends = [vec![good.clone()], vec![bad, last.clone()]];
            let (got, err) = reduce_frames(cfg, drain, &sends, |mut recv| {
                let mut got: Grouped<String, String> = Vec::new();
                let err = loop {
                    match recv.recv() {
                        Ok(Some(g)) => got.push(g),
                        Ok(None) => panic!("the bad group was skipped"),
                        Err(e) => break e,
                    }
                };
                // Fused: no panic, no second error, nothing delivered again,
                // and what the receiver held is released.
                assert_eq!(recv.recv(), Ok(None));
                assert_eq!(recv.recv_all(), Ok(Vec::new()));
                assert_eq!(recv.stats().distinct_keys, got.len() as u64);
                (got, err)
            });
            assert_eq!(pool.stats().live, 0);
            if drain == Drain::Streaming {
                // One frame held at a time; groups as framed, the bad
                // frame's first two after the good frame's when it came
                // first; the error names the mapper as on the grouped path.
                assert_eq!(pool.stats().high_water, bad_len);
                let bad_first = vec![(s("b"), vec![s("2")]), (s("f"), vec![s("6")])];
                let good = [(s("a"), vec![s("1")]), (s("e"), vec![s("5")])];
                let good_first = [&good[..], &bad_first].concat();
                assert!(got == bad_first || got == good_first, "{got:?}");
            } else {
                let spilled = pool.stats().high_water < all_held;
                assert_eq!(spilled, drain == Drain::Bounded(1), "windows went to disk");
                // Decoded span by span: everything before the bad group came
                // out — on the bounded path, from the last window or from a
                // disk run the frame's bytes were copied into verbatim.
                assert_eq!(got, before);
            }
            // The same error on every path, disk runs included.
            assert!(
                matches!(
                    err,
                    MpidError::Codec {
                        source_rank: 2,
                        err: CodecError::Corrupt(_)
                    }
                ),
                "{err:?} ({drain:?})"
            );
        }
    }

    #[test]
    fn a_bad_string_inside_a_tuple_key_fails_only_its_own_group() {
        // Mapper 2's fourth group has a `(String, u64)` key whose string is
        // not UTF-8; in key order it comes after four good groups, one of
        // them shared with mapper 1. The frames are framed as blob keys,
        // which encode as strings do.
        let t = |k: &[u8], n: u64| (k.to_vec(), n);
        let good = frame(&[
            (t(b"a", 1), vec![1u64]),
            (t(b"c", 2), vec![32]),
            (t(b"e", 1), vec![5]),
        ]);
        let bad = frame(&[
            (t(b"b", 1), vec![2u64]),
            (t(b"c", 1), vec![31]),
            (t(b"c", 2), vec![33]),
            (t(b"d\xff", 1), vec![4]),
            (t(b"f", 1), vec![6]),
        ]);
        let last = frame(&[(t(b"g", 1), vec![7u64])]);
        let before = vec![
            ((s("a"), 1), vec![1u64]),
            ((s("b"), 1), vec![2]),
            ((s("c"), 1), vec![31]),
            ((s("c"), 2), vec![32, 33]),
        ];
        let sends = [vec![good], vec![bad, last]];
        for drain in [Drain::Unbounded, Drain::Bounded(1 << 20), Drain::Bounded(1)] {
            let (got, err) = reduce_frames(MpidConfig::default(), drain, &sends, |mut recv| {
                let mut got: Grouped<(String, u64), u64> = Vec::new();
                let err = loop {
                    match recv.recv() {
                        Ok(Some(g)) => got.push(g),
                        Ok(None) => panic!("the bad group was skipped"),
                        Err(e) => break e,
                    }
                };
                assert_eq!(recv.recv(), Ok(None));
                (got, err)
            });
            assert_eq!(got, before, "{drain:?}");
            assert!(
                matches!(
                    err,
                    MpidError::Codec {
                        source_rank: 2,
                        err: CodecError::Corrupt(_)
                    }
                ),
                "{err:?} ({drain:?})"
            );
        }
    }

    /// ROADMAP 10a: a disk run is read back from bytes anything could have
    /// changed. Cut short, given a length word past the end of the file or
    /// a group count no frame could hold, it fails the drain with a codec
    /// error naming the mapper whose frames it holds: no panic, and no
    /// buffer sized by the length word.
    #[test]
    fn a_broken_disk_run_is_a_codec_error_naming_its_mapper() {
        let sends: Vec<Vec<Bytes>> = (1..3)
            .map(|m| {
                (0..3)
                    .map(|i| {
                        let keys = (0..50u64).map(|j| (format!("m{m}-{i}{j:02}"), vec![j]));
                        frame(&keys.collect::<Grouped<String, u64>>())
                    })
                    .collect()
            })
            .collect();
        type Corrupt = fn(&std::path::Path);
        fn write_at(path: &std::path::Path, at: u64, word: u32) {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::File::options().write(true).open(path).unwrap();
            f.seek(SeekFrom::Start(at)).unwrap();
            f.write_all(&word.to_le_bytes()).unwrap();
        }
        let cases: [(&str, Corrupt); 3] = [
            ("cut mid-frame", |path| {
                let f = std::fs::File::options().write(true).open(path).unwrap();
                f.set_len(f.metadata().unwrap().len() - 3).unwrap();
            }),
            ("length word past the end of the file", |path| {
                write_at(path, 0, u32::MAX)
            }),
            ("group count no frame could hold", |path| {
                write_at(path, 4, u32::MAX >> 1)
            }),
        ];
        for (what, corrupt) in cases {
            let dir = std::env::temp_dir().join(format!(
                "mpid-broken-run-{}-{}",
                std::process::id(),
                what.replace(' ', "-")
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let pool = BlockPool::new(1 << 20);
            let cfg = MpidConfig {
                pool: Some(pool.clone()),
                ..Default::default()
            };
            let err = reduce_frames(cfg, Drain::Unbounded, &sends, |recv| {
                // A one-byte window: every frame but the last to arrive
                // goes to a run of its own. Break each of mapper 2's.
                let mut recv = recv.into_external(1, dir.clone()).unwrap();
                assert!(recv.spilled_runs() >= 5);
                let mut broken = 0;
                for table_dir in std::fs::read_dir(&dir).unwrap() {
                    for run in std::fs::read_dir(table_dir.unwrap().path()).unwrap() {
                        let path = run.unwrap().path();
                        let bytes = std::fs::read(&path).unwrap();
                        if bytes.windows(3).any(|w| w == b"m2-") {
                            corrupt(&path);
                            broken += 1;
                        }
                    }
                }
                assert!(broken >= 2, "{what}: {broken} runs of mapper 2");
                let mut got: Grouped<String, u64> = Vec::new();
                let err = loop {
                    match recv.recv() {
                        Ok(Some(g)) => got.push(g),
                        Ok(None) => panic!("{what}: the broken run was skipped"),
                        Err(e) => break e,
                    }
                };
                assert_eq!(recv.recv(), Ok(None));
                assert_eq!(recv.recv_all(), Ok(Vec::new()));
                err
            });
            std::fs::remove_dir_all(&dir).unwrap();
            assert_eq!(pool.stats().live, 0, "{what}");
            let want = MpidError::Codec {
                source_rank: 2,
                err: CodecError::Truncated,
            };
            assert_eq!(err, want, "{what}");
        }
    }

    /// What the reducer (rank 0) makes of mapper rank `m` sending
    /// `sends[m - 1]`, in the `drain` state, with the frames arriving in
    /// *reverse* rank order: each mapper waits for the rank above it to
    /// finish sending before it starts. Returns the groups and the disk runs.
    fn reverse_rank_arrivals(sends: &[Vec<Bytes>], drain: Drain) -> (Grouped<String, u64>, usize) {
        const GO: mpi_rt::Tag = 99;
        let (n, sends) = (sends.len(), sends.to_vec());
        let results = Universe::run(1 + n, move |comm| {
            let me = comm.rank();
            if me > 0 {
                if me < n {
                    comm.recv::<u8>(Some(me + 1), Some(GO)).unwrap();
                }
                for body in &sends[me - 1] {
                    let wire = [&[MARKER_PLAIN][..], &body[..]].concat();
                    comm.send_bytes(0, tags::DATA, wire.into()).unwrap();
                }
                comm.send_bytes(0, tags::DATA, Bytes::new()).unwrap();
                if me > 1 {
                    comm.send_bytes(me - 1, GO, Bytes::new()).unwrap();
                }
                return None;
            }
            let cfg = MpidConfig {
                n_mappers: n,
                n_reducers: 1,
                mem_budget: drain.mem_budget(),
                ..Default::default()
            };
            let recv = MpidReceiver::<String, u64>::new(comm, cfg);
            let mut recv = drain.open(recv);
            let got = recv.recv_all().unwrap();
            Some((got, recv.spilled_runs()))
        });
        results.into_iter().next().flatten().unwrap()
    }

    #[test]
    fn bounded_drains_deliver_the_grouped_drains_bytes_with_several_mappers() {
        // Three mappers, four frames each, arriving highest rank first;
        // every key in every frame, and "k" twice in a frame. Budgets of one
        // byte (a window a frame), two frames and everything: runs per rank
        // and window, then each rank's share of the last window.
        let sends: Vec<Vec<Bytes>> = (1..4u64)
            .map(|m| {
                (0..4u64)
                    .map(|i| {
                        let mut groups: Grouped<String, u64> = (0..30u64)
                            .map(|j| (format!("w{j:02}"), vec![m, i, j]))
                            .collect();
                        groups.push((s("k"), vec![m * 10 + i]));
                        groups.push((s("k"), vec![m * 10 + i + 100]));
                        frame(&groups)
                    })
                    .collect()
            })
            .collect();
        let (want, no_runs) = reverse_rank_arrivals(&sends, Drain::Unbounded);
        assert_eq!(no_runs, 0);
        let rank_then_send: Vec<u64> = (1..4u64)
            .flat_map(|m| (0..4).flat_map(move |i| [m * 10 + i, m * 10 + i + 100]))
            .collect();
        assert_eq!(
            want.iter().find(|(k, _)| k == "k").unwrap().1,
            rank_then_send
        );
        let two_frames = 2 * sends[0][0].len();
        for (drain, min_runs) in [
            (Drain::Bounded(1), 11),
            (Drain::External(1), 11),
            (Drain::Bounded(two_frames), 4),
            (Drain::Bounded(1 << 20), 0),
        ] {
            let (got, runs) = reverse_rank_arrivals(&sends, drain);
            assert_eq!(got, want, "{drain:?}");
            assert!(runs >= min_runs, "{drain:?}: {runs} runs");
        }
    }

    #[test]
    fn the_pool_charge_lives_exactly_as_long_as_the_frames() {
        let groups: Grouped<String, u64> = (0..50).map(|i| (format!("k{i:02}"), vec![i])).collect();
        let f = frame(&groups);
        for (drain, drain_all) in [
            (Drain::Unbounded, true),
            (Drain::Unbounded, false),
            (Drain::Bounded(1 << 20), true),
        ] {
            let pool = BlockPool::new(1 << 20);
            let cfg = MpidConfig {
                pool: Some(pool.clone()),
                ..Default::default()
            };
            let got = reduce_frames(cfg, drain, &[vec![f.clone(), f.clone()]], |mut recv| {
                let first = recv.recv().unwrap().unwrap();
                assert_eq!(pool.stats().live, 2 * f.len(), "frames held while draining");
                if !drain_all {
                    // A half-drained receiver: dropping it releases the rest
                    // (and `MPI_D_Finalize` finds nothing undelivered).
                    drop(recv);
                    assert_eq!(pool.stats().live, 0);
                    return vec![first];
                }
                let mut got = vec![first];
                got.extend(recv.recv_all().unwrap());
                assert_eq!(pool.stats().live, 0, "released at end of stream");
                assert_eq!(recv.stats().distinct_keys, 50);
                got
            });
            assert_eq!(got.len(), if drain_all { 50 } else { 1 });
            assert_eq!(got[0], (s("k00"), vec![0u64, 0]));
            assert_eq!(pool.stats().high_water, 2 * f.len());
        }
    }

    #[test]
    fn one_thread_and_two_deliver_the_same_groups_on_both_paths() {
        // Sixty frames from one mapper, every key in three of them.
        let frames: Vec<Bytes> = (0..60u64)
            .map(|i| {
                let keys = (0..40u64).map(|j| (i % 20) * 40 + j);
                frame(
                    &(keys
                        .map(|k| (format!("w{:04}", k * 7919 % 800), vec![i, k]))
                        .collect::<Vec<_>>()),
                )
            })
            .collect();
        let drain = |threads: usize, drain: Drain, sorted: bool| {
            let cfg = MpidConfig {
                threads,
                ..Default::default()
            };
            reduce_frames(cfg, drain, std::slice::from_ref(&frames), move |recv| {
                let mut recv: MpidReceiver<String, u64> = recv;
                if sorted {
                    recv = recv.with_sorted_values();
                }
                recv.recv_all().unwrap()
            })
        };
        let want = drain(1, Drain::Unbounded, false);
        assert_eq!(want.len(), 800);
        assert!(want.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(want.iter().all(|(_, vs)| vs.len() == 6));
        // A budget of four frames spills fourteen windows and leaves a tail.
        // (The receiver reads no `threads`; 2 pins that.)
        let budget = 4 * frames[0].len() + 8;
        assert_eq!(drain(2, Drain::Unbounded, false), want);
        assert_eq!(drain(1, Drain::Bounded(budget), false), want);
        assert_eq!(drain(2, Drain::Bounded(budget), false), want);
        assert_eq!(drain(1, Drain::External(budget), false), want);
        let mut sorted = want.clone();
        sorted.iter_mut().for_each(|(_, vs)| vs.sort());
        assert_eq!(drain(1, Drain::Unbounded, true), sorted);
        assert_eq!(drain(1, Drain::Bounded(budget), true), sorted);
        assert_eq!(drain(1, Drain::External(budget), true), sorted);

        // Streaming: every framed group once, in send order, so folding the
        // partial groups by key gives the grouped values back; sorted values
        // are sorted per partial group.
        let streamed = drain(1, Drain::Streaming, false);
        assert_eq!(streamed.len(), 60 * 40);
        let mut folded = std::collections::BTreeMap::<String, Vec<u64>>::new();
        for (k, vs) in &streamed {
            folded.entry(k.clone()).or_default().extend(vs);
        }
        assert_eq!(folded.into_iter().collect::<Grouped<_, _>>(), want);
        let mut streamed_sorted = streamed.clone();
        streamed_sorted.iter_mut().for_each(|(_, vs)| vs.sort());
        assert_ne!(streamed_sorted, streamed);
        assert_eq!(drain(1, Drain::Streaming, true), streamed_sorted);
    }

    #[test]
    fn an_empty_stream_yields_none_forever() {
        for drain in [
            Drain::Unbounded,
            Drain::Bounded(1 << 20),
            Drain::External(1 << 20),
            Drain::Streaming,
        ] {
            reduce_frames(
                MpidConfig::default(),
                drain,
                &[vec![], vec![]],
                |mut recv| {
                    for _ in 0..3 {
                        assert_eq!(recv.recv(), Ok(None::<(String, Vec<u64>)>));
                    }
                    assert_eq!(recv.stats().distinct_keys, 0);
                },
            );
        }
    }

    /// What the reducer's first `recv()` makes of one wire frame (marker
    /// byte included) from mapper rank 1, in the `drain` state. After an
    /// error the receiver must be fused and have released its pool charge.
    fn recv_wire(wire: &[u8], drain: Drain) -> MpidResult<Option<(String, Vec<u64>)>> {
        let wire = Bytes::copy_from_slice(wire);
        let results = Universe::run(2, move |comm| {
            if comm.rank() == 1 {
                comm.send_bytes(0, tags::DATA, wire.clone()).unwrap();
                // The reducer may have failed on the frame above and be gone.
                let _ = comm.send_bytes(0, tags::DATA, Bytes::new());
                return None;
            }
            let pool = BlockPool::new(1 << 20);
            let cfg = MpidConfig {
                n_mappers: 1,
                n_reducers: 1,
                mem_budget: drain.mem_budget(),
                pool: Some(pool.clone()),
                ..Default::default()
            };
            let recv = MpidReceiver::<String, u64>::new(comm, cfg);
            let mut recv = drain.open(recv);
            let first = recv.recv();
            if first.is_err() {
                assert_eq!(recv.recv(), Ok(None));
                assert_eq!(pool.stats().live, 0);
            }
            Some(first)
        });
        results.into_iter().next().flatten().unwrap()
    }

    /// One rank's window of frame bodies spilled as one disk run: the bytes
    /// the run took on disk, and its groups read back.
    fn spill_one_run(bodies: &[Bytes]) -> (u64, Grouped<String, u64>) {
        let frames = (bodies.iter())
            .map(|body| Frame::index::<String, u64>(body.clone(), 0, 1, 1 << 20).unwrap())
            .collect();
        let mut table = ExternalTable::<String, u64>::new(1 << 20, std::env::temp_dir()).unwrap();
        spill_run(&mut table, frames).unwrap();
        let spilled = table.spilled_bytes();
        let run: Source<String, u64, ExtMergeError> = Box::new(table.open_run(0).unwrap());
        (
            spilled,
            table.into_merge_of(vec![run]).collect_all().unwrap(),
        )
    }

    /// A window whose every group has one value and a non-empty key spills
    /// in the single-valued layout: a length word and a count word a
    /// record, then each group's key and value, with no value count.
    #[test]
    fn a_window_of_single_valued_groups_spills_without_value_counts() {
        let groups = |parity: u64| -> Grouped<String, u64> {
            (0..90u64)
                .filter(|k| k % 2 == parity)
                .map(|k| (format!("k{k:03}"), vec![k]))
                .collect()
        };
        let (even, odd) = (groups(0), groups(1));
        let (spilled, got) = spill_one_run(&[frame(&even), frame(&odd)]);
        // One record: 8 bytes of header, then 4 + 4 of key and 8 of value
        // a group, where the counted layout would take 20.
        assert_eq!(spilled, 8 + 90 * 16);
        let mut want = [even, odd].concat();
        want.sort();
        assert_eq!(got, want);
    }

    /// A key that two frames of one rank both hold has two values in the
    /// run, so the whole run keeps the counted layout.
    #[test]
    fn a_key_in_two_frames_of_one_rank_keeps_the_count_layout() {
        let first = [(s("k000"), vec![1u64]), (s("k001"), vec![2])];
        let second = [(s("k001"), vec![3u64]), (s("k002"), vec![4])];
        let (spilled, got) = spill_one_run(&[frame(&first), frame(&second)]);
        // 8 bytes of header, then key 8 + count 4 + 8 a value per group.
        assert_eq!(spilled, 8 + 20 + 28 + 20);
        let want = [
            (s("k000"), vec![1]),
            (s("k001"), vec![2, 3]),
            (s("k002"), vec![4]),
        ];
        assert_eq!(got, want);
    }

    /// ROADMAP 10: every way a frame's count word can lie — the layout bit
    /// included — is a codec error naming the mapper, in every drain state.
    #[test]
    fn hostile_group_count_is_a_codec_error_naming_the_mapper() {
        use crate::realign::SINGLE_VALUED;
        let plain = |body: &[u8]| [&[MARKER_PLAIN][..], body].concat();
        let lz = |body: &[u8]| [&[MARKER_LZ][..], &crate::compress::compress(body)].concat();
        let with_count = |body: &[u8], count: u32| [&count.to_le_bytes(), &body[4..]].concat();
        let mut b = FrameBuilder::new(1 << 20).single_valued(true);
        b.push_group(&s("k"), &[7u64]);
        b.push_group(&s("kk"), &[8u64]);
        let flagged = b.finish().pop().unwrap();
        let multi = frame(&[(s("k"), vec![7u64, 8])]);
        let n_rest = (flagged.len() - 4) as u32;
        let trailing = CodecError::Corrupt("trailing bytes after last group");
        let cases: Vec<(&str, Vec<u8>, CodecError)> = vec![
            // One real group under a count word claiming u32::MAX of them.
            (
                "all ones",
                plain(&with_count(&multi, u32::MAX)),
                CodecError::Truncated,
            ),
            (
                "count past the flagged body",
                plain(&with_count(&flagged, SINGLE_VALUED | (n_rest + 1))),
                CodecError::Truncated,
            ),
            (
                "count the length allows, the groups do not",
                plain(&with_count(&flagged, SINGLE_VALUED | n_rest)),
                CodecError::Truncated,
            ),
            (
                "cut mid-value",
                plain(&flagged[..flagged.len() - 3]),
                CodecError::Truncated,
            ),
            (
                "trailing byte",
                plain(&[&flagged[..], &[0]].concat()),
                trailing.clone(),
            ),
            (
                "bit set on two values",
                plain(&with_count(&multi, SINGLE_VALUED | 1)),
                trailing,
            ),
            (
                "bit cleared on one value",
                plain(&with_count(&flagged, 2)),
                CodecError::Truncated,
            ),
            (
                "flagged count past the body, compressed",
                lz(&with_count(&flagged, SINGLE_VALUED | (n_rest + 1))),
                CodecError::Truncated,
            ),
            (
                "flagged and compressed, cut mid-value",
                lz(&flagged[..flagged.len() - 3]),
                CodecError::Truncated,
            ),
        ];
        for drain in [Drain::Unbounded, Drain::Bounded(1 << 20), Drain::Streaming] {
            for (what, wire, err) in &cases {
                let want = Err(MpidError::Codec {
                    source_rank: 1,
                    err: err.clone(),
                });
                assert_eq!(recv_wire(wire, drain), want, "{what} ({drain:?})");
            }
            // Honest flagged frames, plain and compressed, read back.
            for wire in [plain(&flagged), lz(&flagged)] {
                let first = Ok(Some((s("k"), vec![7u64])));
                assert_eq!(recv_wire(&wire, drain), first);
            }
        }
    }
}
