//! The reducer-side `MPI_D_Recv` pipeline (paper Figure 4, right half):
//! wildcard reception of frames from any mapper, reverse realignment, and
//! sort-merge grouping of each key's value lists.
//!
//! Frames arrive as refcounted [`Bytes`] straight off the transport (plain
//! frames are a zero-copy slice past the wire marker; only LZ frames are
//! decompressed into a fresh buffer). Each frame body is indexed into
//! per-group byte ranges ([`parse_group_index_raw`]) — nothing decodes at
//! ingest — and sorted by key as it arrives; at end of stream all frame
//! runs go through *one* merge (`Merged`), whose output the in-memory
//! table, the bounded path's window spills and its tail all walk.
//!
//! ## Raw-key merge
//!
//! For key types with an [`encoded_cmp`](crate::kv::Kv::encoded_cmp)
//! comparator (integers, strings, blobs — every common MapReduce key) no
//! key is decoded to be compared. A frame's groups are sorted through a
//! compact index of 16-byte [`KeyRef`]s, each holding the key's
//! [`encoded_prefix`](crate::kv::Kv::encoded_prefix) inline: comparing two
//! entries is comparing two registers, and only a tie on a prefix that is
//! not [a whole key](crate::kv::Kv::prefix_is_exact) follows the entries
//! into the frame bytes. The merge concatenates the run indexes in the
//! order values must come out — (mapper rank, send order) on the unbounded
//! path, which stably sorts its runs by source rank first, so the
//! scheduler-dependent interleaving of *frame arrival* across mappers never
//! reaches the output — and stably sorts the concatenation. std's merge
//! sort finds the k presorted runs and merges them in about log k
//! comparisons per entry, whatever k is, and stability is the value-order
//! guarantee. Equal keys then sit next to each other: each distinct key is
//! decoded exactly *once*, from the first entry of its span, and its values
//! decode exactly once, straight into an exact-capacity `Vec`. Grouped
//! output is ascending in key order.
//!
//! Other key types decode each frame's keys up front and compare decoded
//! values (their prefix is `0`); once the merged index is sorted its
//! prefixes are overwritten with the ordinal of each distinct key, and from
//! there on they take the same walk.
//!
//! ## Threads
//!
//! With [`MpidConfig::threads`] > 1 the merged index is cut into that many
//! near-equal chunks, each cut moved forward to the next key boundary, and
//! the chunks decode on scoped threads (`Merged::decode`). The chunks
//! partition the index in key order, so concatenating their outputs is the
//! sequential result byte for byte — a worker shares only `&[u8]` frame
//! bodies and offset tables, never a decoded key. The sort itself stays on
//! the receiving thread.
//!
//! ## Memory
//!
//! Frame buffering charges the job's [`BlockPool`](crate::pool::BlockPool)
//! when one is configured. The unbounded path charges what it holds (the
//! whole shuffle); with [`MpidConfig::mem_budget`] set, [`MpidReceiver::recv`]
//! routes through the windowed external merge instead: frame runs buffer
//! until the *next* frame would exceed the budget (charges are taken before
//! buffering, so `high_water` stays at or under the budget), then the
//! window merges into one pre-sorted disk run. Window boundaries never
//! change grouping or key order — the disk merge absorbs equal keys
//! run-first/tail-last. The windowed path streams frames as they arrive
//! (it cannot reorder runs it has already spilled), so with a single
//! mapper its output is bit-identical to the unbounded path; with several
//! mappers, value order within a key follows arrival interleaving rather
//! than mapper rank.
//!
//! [`ExternalTable`]: crate::extmerge::ExternalTable

use crate::config::{tags, MpidConfig};
use crate::error::{MpidError, MpidResult};
use crate::kv::{CodecError, Key, Value};
use crate::pool::PoolCharge;
use crate::realign::{
    parse_group_index_raw, FrameReader, KeyRef, RawGroup, MARKER_LZ, MARKER_PLAIN,
};
use crate::stats::ReceiverStats;
use bytes::Bytes;
use mpi_rt::{Comm, Rank, RankTrace};
use obs::ArgValue;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Merged grouped output: ascending keys, each with its value list.
type Grouped<K, V> = Vec<(K, Vec<V>)>;

/// Reducer-side handle.
///
/// "Each reducer adopts the MPI_Recv primitive in the wildcard reception
/// style to receive messages from any source. Multiple data flows in
/// mappers' partitions are sent to the corresponding reducer concurrently,
/// while reducers receive and combine them in memory."
///
/// The first call to [`MpidReceiver::recv`] ingests frames until an
/// end-of-stream marker has arrived from every mapper, merging value lists
/// per key; subsequent calls stream out `(key, values)` groups in ascending
/// key order.
pub struct MpidReceiver<'a, K: Key, V: Value> {
    comm: &'a Comm,
    cfg: MpidConfig,
    timeout: Duration,
    value_sorter: Option<fn(&mut Vec<V>)>,
    state: RecvState<K, V>,
    stats: ReceiverStats,
}

enum RecvState<K: Key, V: Value> {
    Ingesting,
    Draining(std::vec::IntoIter<(K, Vec<V>)>),
    /// Bounded-memory drain, entered automatically when
    /// [`MpidConfig::mem_budget`] is set.
    DrainingExt(Box<crate::extmerge::MergeIter<K, V>>),
}

/// One received frame, held as bytes: the body buffer and its groups' byte
/// ranges, in key order. Holds no decoded key, so worker threads can share
/// it whatever `K` is.
struct Frame {
    body: Bytes,
    raw: Vec<RawGroup>,
    /// Sender rank, for attributing late decode errors.
    src: Rank,
}

impl Frame {
    fn key_bytes(&self, e: &KeyRef) -> &[u8] {
        self.raw[e.group as usize].key_bytes(&self.body)
    }

    fn codec_err(&self, err: CodecError) -> MpidError {
        MpidError::Codec {
            source_rank: self.src,
            err,
        }
    }
}

/// A frame whose groups (`frame.raw`) are in key order, with what comparing
/// them needs, both parallel to `frame.raw`: each key's
/// [`encoded_prefix`](crate::kv::Kv::encoded_prefix) and — only when the key
/// type has no encoded comparator — the decoded keys. With a comparator
/// `keys` stays empty and comparisons run on prefixes and raw bytes;
/// without one the prefixes are all `0`.
struct FrameRun<K> {
    frame: Frame,
    prefixes: Vec<u64>,
    keys: Vec<K>,
}

/// Order of two keys that have an encoded comparator, from their prefixes:
/// the prefixes decide, and only a tie on a prefix that is not a whole key
/// calls `bytes_order` to fetch and compare the encoded bytes.
fn prefix_order<K: Key>(a: u64, b: u64, bytes_order: impl FnOnce() -> Ordering) -> Ordering {
    a.cmp(&b).then_with(|| {
        if K::prefix_is_exact(a) {
            Ordering::Equal
        } else {
            bytes_order()
        }
    })
}

/// Key order of two index entries over `runs`: by prefix and encoded bytes
/// with a comparator, by decoded key without one.
fn key_order<K: Key>(runs: &[FrameRun<K>], a: &KeyRef, b: &KeyRef) -> Ordering {
    let run_of = |e: &KeyRef| &runs[e.run as usize];
    match K::encoded_cmp() {
        Some(cmp) => prefix_order::<K>(a.prefix, b.prefix, || {
            cmp(run_of(a).frame.key_bytes(a), run_of(b).frame.key_bytes(b))
        }),
        None => run_of(a).keys[a.group as usize].cmp(&run_of(b).keys[b.group as usize]),
    }
}

impl<'a, K: Key, V: Value> MpidReceiver<'a, K, V> {
    pub(crate) fn new(comm: &'a Comm, cfg: MpidConfig) -> Self {
        MpidReceiver {
            comm,
            cfg,
            timeout: MpidConfig::DEFAULT_RECV_TIMEOUT,
            value_sorter: None,
            state: RecvState::Ingesting,
            stats: ReceiverStats::default(),
        }
    }

    /// Bound how long ingestion waits for the next frame before reporting
    /// a timeout error — this is how a dead mapper becomes a visible
    /// error instead of a hang. Default:
    /// [`MpidConfig::DEFAULT_RECV_TIMEOUT`].
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }

    /// Sort each key's value list before delivery ("it can also sort the
    /// value list for each key on demand").
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

    /// Receive one frame as a key-sorted run, or count an end-of-stream.
    fn recv_one_run(&mut self) -> MpidResult<Option<FrameRun<K>>> {
        let Some((body, src)) = recv_frame_body(self.comm, self.timeout, &mut self.stats)? else {
            return Ok(None);
        };
        let run = sort_frame::<K, V>(body, src)?;
        self.stats.groups_in += run.frame.raw.len() as u64;
        Ok(Some(run))
    }

    // Runs once per job. Out of line so that the size of the merge does not
    // sway how a caller's rank closure — the mapper's loop included — gets
    // compiled: inlined, `wc_zipf_1x1_*` measured 9 % slower end to end
    // with not one changed instruction in the sender.
    #[inline(never)]
    fn ingest(&mut self) -> MpidResult<Vec<(K, Vec<V>)>> {
        let t0 = self.comm.trace().map(|rt| rt.now_ns());
        // Unbounded ingest holds every frame at once; the charge records
        // that honestly (`forced` counts any budget overrun) — bounded
        // jobs route through `ingest_external` instead.
        let mut charge = PoolCharge::new(self.cfg.pool.clone());
        let mut runs: Vec<FrameRun<K>> = Vec::new();
        let mut eos_seen = 0usize;
        while eos_seen < self.cfg.n_mappers {
            match self.recv_one_run()? {
                None => eos_seen += 1,
                Some(run) => {
                    charge.grow(run.frame.body.len());
                    runs.push(run);
                }
            }
        }
        let (table, merge_ranges) = merge_by_rank::<K, V>(runs, self.cfg.threads)?;
        self.stats.distinct_keys = table.len() as u64;
        if let (Some(rt), Some(t0)) = (self.comm.trace(), t0) {
            trace_merge(
                rt,
                t0,
                &self.stats,
                &self.cfg,
                None,
                self.stats.bytes_received,
                0,
                merge_ranges,
            );
        }
        Ok(table)
    }

    /// Windowed external ingest shared by [`MpidReceiver::into_external`]
    /// and the automatic bounded path [`MpidReceiver::recv`] takes when
    /// [`MpidConfig::mem_budget`] is set. Returns the streaming merge and
    /// the number of runs spilled.
    #[inline(never)] // as for `ingest`
    fn ingest_external(
        &mut self,
        budget_bytes: usize,
        spill_dir: std::path::PathBuf,
    ) -> MpidResult<(crate::extmerge::MergeIter<K, V>, usize)> {
        let t0 = self.comm.trace().map(|rt| rt.now_ns());
        let spill_err = |e: crate::extmerge::ExtMergeError| MpidError::Spill(e.to_string());
        let mut table = crate::extmerge::ExternalTable::<K, V>::new(budget_bytes, spill_dir)
            .map_err(|e| MpidError::Spill(e.to_string()))?;
        let mut charge = PoolCharge::new(self.cfg.pool.clone());
        let mut window: Vec<FrameRun<K>> = Vec::new();
        let mut window_bytes = 0usize;
        let mut window_high_water = 0usize;
        let mut eos_seen = 0usize;
        while eos_seen < self.cfg.n_mappers {
            match self.recv_one_run()? {
                None => eos_seen += 1,
                Some(run) => {
                    let b = run.frame.body.len();
                    // Charge *before* buffering: a frame that doesn't fit
                    // spills the current window first, so the pool's
                    // high-water mark stays at or under the budget unless
                    // a single frame alone exceeds it (a forced charge).
                    let charged = window_bytes + b <= budget_bytes && charge.try_grow(b);
                    if !charged {
                        if !window.is_empty() {
                            spill_window(&mut table, std::mem::take(&mut window))
                                .map_err(spill_err)?;
                            window_bytes = 0;
                            charge.clear();
                        }
                        if !charge.try_grow(b) {
                            charge.grow(b);
                        }
                    }
                    window_bytes += b;
                    window_high_water = window_high_water.max(window_bytes);
                    window.push(run);
                }
            }
        }
        // The final unspilled window becomes the merge tail — the position
        // the resident table held in the insert path, so per-key value
        // order stays run-order-then-tail = frame-arrival order.
        let (tail, merge_ranges) = Merged::new(window).decode::<K, V>(self.cfg.threads)?;
        let spilled_runs = table.spilled_runs();
        if let (Some(rt), Some(t0)) = (self.comm.trace(), t0) {
            trace_merge(
                rt,
                t0,
                &self.stats,
                &self.cfg,
                Some(spilled_runs),
                window_high_water as u64,
                table.spilled_bytes(),
                merge_ranges,
            );
        }
        let merge = table.into_merge_with_tail(tail).map_err(spill_err)?;
        Ok((merge, spilled_runs))
    }

    /// Switch to bounded-memory consumption: buffer frame runs up to
    /// `budget_bytes`, merge each full window into one pre-sorted disk run
    /// of an [`ExternalTable`](crate::extmerge::ExternalTable) (no resident
    /// resort — the window is already key-merged), then stream globally
    /// key-ordered merged groups — the reducer-side external merge Hadoop
    /// performs when reduce inputs exceed memory.
    pub fn into_external(
        mut self,
        budget_bytes: usize,
        spill_dir: std::path::PathBuf,
    ) -> MpidResult<ExternalRecv<K, V>> {
        assert!(
            matches!(self.state, RecvState::Ingesting),
            "into_external after recv() started grouping"
        );
        let (merge, spilled_runs) = self.ingest_external(budget_bytes, spill_dir)?;
        Ok(ExternalRecv {
            merge,
            spilled_runs,
            stats: self.stats.clone(),
        })
    }

    /// Switch to streaming consumption (see [`MpidStream`]).
    pub fn into_streaming(self) -> MpidStream<'a, K, V> {
        assert!(
            matches!(self.state, RecvState::Ingesting),
            "into_streaming after recv() started grouping"
        );
        MpidStream {
            comm: self.comm,
            cfg: self.cfg,
            timeout: self.timeout,
            eos_seen: 0,
            buffer: std::collections::VecDeque::new(),
            stats: self.stats,
        }
    }

    /// `MPI_D_Recv`: return the next `(key, value-list)` group, or `None`
    /// once every group has been delivered.
    pub fn recv(&mut self) -> MpidResult<Option<(K, Vec<V>)>> {
        loop {
            match &mut self.state {
                RecvState::Ingesting => {
                    if let Some(budget) = self.cfg.mem_budget {
                        let (merge, _) = self.ingest_external(budget, std::env::temp_dir())?;
                        self.state = RecvState::DrainingExt(Box::new(merge));
                    } else {
                        let table = self.ingest()?;
                        self.state = RecvState::Draining(table.into_iter());
                    }
                }
                RecvState::Draining(iter) => {
                    return Ok(iter.next().map(|(k, mut vs)| {
                        if let Some(sort) = self.value_sorter {
                            sort(&mut vs);
                        }
                        (k, vs)
                    }));
                }
                RecvState::DrainingExt(merge) => {
                    let next = merge
                        .next_group()
                        .map_err(|e| MpidError::Spill(e.to_string()))?;
                    return Ok(next.map(|(k, mut vs)| {
                        if let Some(sort) = self.value_sorter {
                            sort(&mut vs);
                        }
                        (k, vs)
                    }));
                }
            }
        }
    }

    /// Drain every remaining group into a vector (keys ascending).
    pub fn recv_all(&mut self) -> MpidResult<Vec<(K, Vec<V>)>> {
        let mut out = Vec::new();
        while let Some(g) = self.recv()? {
            out.push(g);
        }
        Ok(out)
    }
}

/// Index one frame body (count header + groups, from rank `src`) and sort
/// it by key, decoding no value — and no key either when the key type has
/// an encoded comparator.
fn sort_frame<K: Key, V: Value>(body: Bytes, src: Rank) -> MpidResult<FrameRun<K>> {
    let codec_err = |err| MpidError::Codec {
        source_rank: src,
        err,
    };
    let raw = parse_group_index_raw::<K, V>(&body).map_err(codec_err)?;
    // Both sorts are stable: a frame carrying the same key twice keeps
    // its in-frame order, so the merge's send-order guarantee holds.
    let (raw, prefixes, keys) = match K::encoded_cmp() {
        Some(cmp) => {
            // Sort a compact (prefix, group) index, then put the byte
            // ranges in that order too, so the merge reads each run's
            // ranges front to back.
            let key_bytes = |e: &KeyRef| raw[e.group as usize].key_bytes(&body);
            let mut index: Vec<KeyRef> = (raw.iter().zip(0u32..))
                .map(|(g, group)| KeyRef {
                    prefix: K::encoded_prefix(g.key_bytes(&body)),
                    run: 0,
                    group,
                })
                .collect();
            // A key recurs inside one frame only when the frame spans two
            // spills, so ties here are rare and go straight to the bytes:
            // asking `prefix_is_exact` in this comparator too made the
            // tie-free sort of `distinct_keys` ~1.6x slower (measured).
            index.sort_by(|a, b| {
                (a.prefix.cmp(&b.prefix)).then_with(|| cmp(key_bytes(a), key_bytes(b)))
            });
            let sorted = index.iter().map(|e| raw[e.group as usize]).collect();
            let prefixes = index.iter().map(|e| e.prefix).collect();
            (sorted, prefixes, Vec::new())
        }
        None => {
            let mut pairs: Vec<(K, RawGroup)> = Vec::with_capacity(raw.len());
            for g in raw {
                let mut kb = g.key_bytes(&body);
                pairs.push((K::decode(&mut kb).map_err(codec_err)?, g));
            }
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let (keys, sorted): (Vec<K>, Vec<RawGroup>) = pairs.into_iter().unzip();
            (sorted, vec![0; keys.len()], keys)
        }
    };
    Ok(FrameRun {
        frame: Frame { body, raw, src },
        prefixes,
        keys,
    })
}

/// Every group of a set of frame runs under one key-ordered index — the
/// one merge behind the in-memory table, the bounded path's window spills
/// and its tail. Equal keys sit next to each other in (run, in-frame)
/// order, so walking [`Merged::spans`] yields each distinct key once with
/// its contributions already in delivery order.
struct Merged {
    frames: Vec<Frame>,
    index: Vec<KeyRef>,
}

impl Merged {
    /// Merge `runs`, given in the order their values must come out for an
    /// equal key. The run indexes are concatenated in that order and
    /// stably sorted: std's merge sort is run-adaptive, so k presorted runs
    /// cost about log k comparisons per entry, and stability *is* the
    /// value-order guarantee.
    fn new<K: Key>(runs: Vec<FrameRun<K>>) -> Self {
        let mut index = Vec::with_capacity(runs.iter().map(|r| r.prefixes.len()).sum());
        for (run, r) in (0u32..).zip(&runs) {
            index.extend(
                (r.prefixes.iter().zip(0u32..)).map(|(&prefix, group)| KeyRef {
                    prefix,
                    run,
                    group,
                }),
            );
        }
        index.sort_by(|a, b| key_order(&runs, a, b));
        if K::encoded_cmp().is_none() {
            // No comparator on bytes: number the distinct keys while the
            // decoded ones are still here, so that from now on an equal
            // prefix alone means an equal key and the keys can go.
            let key = |e: &KeyRef| &runs[e.run as usize].keys[e.group as usize];
            let mut ordinal = 0u64;
            for i in 1..index.len() {
                ordinal += u64::from(key(&index[i - 1]) != key(&index[i]));
                index[i].prefix = ordinal;
            }
        }
        Merged {
            frames: runs.into_iter().map(|r| r.frame).collect(),
            index,
        }
    }

    fn same_key<K: Key>(&self, a: &KeyRef, b: &KeyRef) -> bool {
        let key_bytes = |e: &KeyRef| self.frames[e.run as usize].key_bytes(e);
        match K::encoded_cmp() {
            Some(cmp) => {
                prefix_order::<K>(a.prefix, b.prefix, || cmp(key_bytes(a), key_bytes(b))).is_eq()
            }
            None => a.prefix == b.prefix,
        }
    }

    /// The equal-key spans of `index[range]`, in key order. `range` must
    /// start and end on span boundaries.
    fn spans<K: Key>(&self, range: Range<usize>) -> impl Iterator<Item = &[KeyRef]> + '_ {
        let mut rest = &self.index[range];
        std::iter::from_fn(move || {
            let first = rest.first()?;
            let n = 1 + rest[1..]
                .iter()
                .take_while(|e| self.same_key::<K>(first, e))
                .count();
            let (span, tail) = rest.split_at(n);
            rest = tail;
            Some(span)
        })
    }

    /// Decode a span's key (once) and count its values, for an
    /// exact-capacity value list or a disk run's group header.
    fn span_head<K: Key>(&self, span: &[KeyRef]) -> MpidResult<(K, usize)> {
        let frame = &self.frames[span[0].run as usize];
        let mut kb = frame.key_bytes(&span[0]);
        let key = K::decode(&mut kb).map_err(|e| frame.codec_err(e))?;
        let n_values = span.iter().map(|e| self.group(e).1.n_values as usize).sum();
        Ok((key, n_values))
    }

    fn group(&self, e: &KeyRef) -> (&Frame, &RawGroup) {
        let frame = &self.frames[e.run as usize];
        (frame, &frame.raw[e.group as usize])
    }

    /// Decode `index[range]` into `(key, values)` groups: ascending keys,
    /// each value decoded exactly once into an exact-capacity list.
    fn decode_range<K: Key, V: Value>(&self, range: Range<usize>) -> MpidResult<Grouped<K, V>> {
        let mut out: Grouped<K, V> = Vec::new();
        for span in self.spans::<K>(range) {
            let (key, n_values) = self.span_head::<K>(span)?;
            let mut values: Vec<V> = Vec::with_capacity(n_values);
            for e in span {
                let (frame, g) = self.group(e);
                let mut slice = g.val_bytes(&frame.body);
                for _ in 0..g.n_values {
                    values.push(V::decode(&mut slice).map_err(|e| frame.codec_err(e))?);
                }
            }
            out.push((key, values));
        }
        Ok(out)
    }

    /// Decode the whole index. With `threads > 1` it is cut into that many
    /// near-equal chunks, each cut moved forward to the next span boundary,
    /// and the chunks decode on scoped threads; chunks partition the index
    /// in key order, so their concatenation is the sequential result.
    /// Returns the groups and the number of chunks decoded in parallel.
    fn decode<K: Key, V: Value>(&self, threads: usize) -> MpidResult<(Grouped<K, V>, usize)> {
        let n = self.index.len();
        if threads <= 1 || n == 0 {
            return Ok((self.decode_range(0..n)?, 0));
        }
        let mut cuts = vec![0; threads + 1];
        for t in 1..threads {
            let mut cut = (t * n / threads).max(cuts[t - 1]);
            while 0 < cut && cut < n && self.same_key::<K>(&self.index[cut - 1], &self.index[cut]) {
                cut += 1;
            }
            cuts[t] = cut;
        }
        cuts[threads] = n;
        let mut parts: Vec<MpidResult<Grouped<K, V>>> = Vec::new();
        parts.resize_with(threads, || Ok(Vec::new()));
        // The scope joins every worker and re-raises a worker's panic.
        std::thread::scope(|s| {
            for (part, w) in parts.iter_mut().zip(cuts.windows(2)) {
                s.spawn(move || *part = self.decode_range(w[0]..w[1]));
            }
        });
        let mut out: Grouped<K, V> = Vec::new();
        for part in parts {
            out.extend(part?);
        }
        Ok((out, threads))
    }
}

/// The unbounded path's merge: in (mapper rank, send order), not
/// frame-arrival order. Wildcard reception interleaves mappers however the
/// scheduler ran them, and an equal key's values come out run by run, so
/// arrival order would leak scheduling into each key's value order; a
/// stable sort of the runs by source rank pins it.
fn merge_by_rank<K: Key, V: Value>(
    mut runs: Vec<FrameRun<K>>,
    threads: usize,
) -> MpidResult<(Grouped<K, V>, usize)> {
    runs.sort_by_key(|r| r.frame.src);
    Merged::new(runs).decode(threads)
}

/// Merge one window of frame runs into a single pre-sorted disk run. Value
/// bytes are copied verbatim from the frame bodies — no decode/re-encode.
fn spill_window<K: Key, V: Value>(
    table: &mut crate::extmerge::ExternalTable<K, V>,
    runs: Vec<FrameRun<K>>,
) -> Result<(), crate::extmerge::ExtMergeError> {
    if runs.is_empty() {
        return Ok(());
    }
    let merged = Merged::new(runs);
    let mut rw = table.begin_sorted_run()?;
    for span in merged.spans::<K>(0..merged.index.len()) {
        // A key that fails to decode mid-spill is a frame codec error;
        // surface it through the extmerge error channel the caller maps.
        let (key, n_values) = merged
            .span_head::<K>(span)
            .map_err(|e| crate::extmerge::ExtMergeError::Codec(codec_of(e)))?;
        rw.begin_group(&key, n_values as u32);
        for e in span {
            let (frame, g) = merged.group(e);
            rw.push_raw(g.val_bytes(&frame.body));
        }
        rw.end_group()?;
    }
    rw.finish()
}

/// Extract the codec error from a receiver-side [`MpidError`], for routing
/// through [`ExtMergeError`](crate::extmerge::ExtMergeError).
fn codec_of(e: MpidError) -> crate::kv::CodecError {
    match e {
        MpidError::Codec { err, .. } => err,
        _ => crate::kv::CodecError::Corrupt("receiver merge error"),
    }
}

/// Record the reducer-side "merge" stage span (cat `mpid.stage`): wildcard
/// frame reception plus in-memory (or external) merging, from `t0` to now,
/// with the [`ReceiverStats`] counters as span args. Also publishes the
/// receiver's `mpid.mem.*` memory-accounting counters (frame-buffer
/// high-water, frames decoded, bytes spilled), the `mpid.mem.pool.*` pool
/// snapshot when a pool is configured, and `mpid.threads.merge_ranges`
/// when the merge fanned out.
#[allow(clippy::too_many_arguments)] // one-shot trace emission, not an API
fn trace_merge(
    rt: &Arc<RankTrace>,
    t0: u64,
    stats: &ReceiverStats,
    cfg: &MpidConfig,
    spilled_runs: Option<usize>,
    frame_high_water: u64,
    spill_bytes: u64,
    merge_ranges: usize,
) {
    let mut args = vec![
        ("frames", ArgValue::U64(stats.frames)),
        ("bytes_received", ArgValue::U64(stats.bytes_received)),
        ("groups_in", ArgValue::U64(stats.groups_in)),
        ("distinct_keys", ArgValue::U64(stats.distinct_keys)),
    ];
    if let Some(runs) = spilled_runs {
        args.push(("spilled_runs", ArgValue::U64(runs as u64)));
    }
    if merge_ranges > 0 {
        args.push(("merge_ranges", ArgValue::U64(merge_ranges as u64)));
    }
    rt.complete_since(obs::names::SPAN_MERGE, obs::names::CAT_MPID_STAGE, t0, args);
    rt.counter(
        obs::names::CTR_MEM_FRAME_BYTES,
        obs::names::CAT_MPID_MEM,
        frame_high_water as f64,
    );
    rt.counter(
        obs::names::CTR_MEM_FRAMES_DECODED,
        obs::names::CAT_MPID_MEM,
        stats.frames as f64,
    );
    rt.counter(
        obs::names::CTR_MEM_SPILL_BYTES,
        obs::names::CAT_MPID_MEM,
        spill_bytes as f64,
    );
    if let Some(pool) = &cfg.pool {
        let ps = pool.stats();
        rt.counter(
            obs::names::CTR_MEM_POOL_LIVE,
            obs::names::CAT_MPID_MEM,
            ps.live as f64,
        );
        rt.counter(
            obs::names::CTR_MEM_POOL_HIGH_WATER,
            obs::names::CAT_MPID_MEM,
            ps.high_water as f64,
        );
        rt.counter(
            obs::names::CTR_MEM_POOL_BUDGET,
            obs::names::CAT_MPID_MEM,
            ps.budget as f64,
        );
        rt.counter(
            obs::names::CTR_MEM_POOL_FORCED,
            obs::names::CAT_MPID_MEM,
            ps.forced as f64,
        );
    }
    if merge_ranges > 0 {
        rt.counter(
            obs::names::CTR_THREADS_MERGE_RANGES,
            obs::names::CAT_MPID_THREADS,
            merge_ranges as f64,
        );
    }
}

/// Receive one DATA frame body: `Ok(None)` = end-of-stream marker, otherwise
/// the frame body (marker stripped, decompressed if needed) and its source
/// rank. Plain frames are a zero-copy slice of the transport buffer.
fn recv_frame_body(
    comm: &Comm,
    timeout: Duration,
    stats: &mut ReceiverStats,
) -> MpidResult<Option<(Bytes, Rank)>> {
    // Wildcard source, but tag-filtered to the MPI-D data stream: an
    // unrestricted wildcard would intercept collective traffic (e.g.
    // another rank's early `MPI_D_Finalize` barrier).
    let (payload, status) = comm.recv_bytes_timeout(None, Some(tags::DATA), timeout)?;
    if payload.is_empty() {
        return Ok(None); // end-of-stream (real frames are never empty)
    }
    stats.frames += 1;
    stats.bytes_received += payload.len() as u64;
    let codec_err = |err| MpidError::Codec {
        source_rank: status.source,
        err,
    };
    let body = match payload[0] {
        MARKER_PLAIN => payload.slice(1..),
        MARKER_LZ => Bytes::from(crate::compress::decompress(&payload[1..]).map_err(codec_err)?),
        _ => {
            return Err(codec_err(crate::kv::CodecError::Corrupt(
                "unknown frame marker",
            )))
        }
    };
    Ok(Some((body, status.source)))
}

/// Bounded-memory reducer consumption: groups stream out of a k-way merge
/// over disk-spilled runs (see [`MpidReceiver::into_external`]).
pub struct ExternalRecv<K: Key, V: Value> {
    merge: crate::extmerge::MergeIter<K, V>,
    spilled_runs: usize,
    stats: ReceiverStats,
}

impl<K: Key, V: Value> ExternalRecv<K, V> {
    /// Next merged `(key, values)` group in ascending key order.
    pub fn recv(&mut self) -> MpidResult<Option<(K, Vec<V>)>> {
        self.merge
            .next_group()
            .map_err(|e| MpidError::Spill(e.to_string()))
    }

    /// Runs that were spilled to disk during ingestion.
    pub fn spilled_runs(&self) -> usize {
        self.spilled_runs
    }

    /// Ingestion statistics.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }
}

/// Streaming reducer consumption — the paper's memory-saving mode: "The
/// reducer will adopt a streaming mode to process the data for saving
/// memory space."
///
/// [`MpidStream::next_group`] yields `(key, values)` groups as frames
/// arrive, in frame order, **without** global grouping: the same key may be
/// yielded several times (once per spill that carried it), so the consumer
/// must fold with an associative, commutative operation. Memory use is
/// bounded by one frame instead of the whole key space.
pub struct MpidStream<'a, K: Key, V: Value> {
    comm: &'a mpi_rt::Comm,
    cfg: MpidConfig,
    timeout: Duration,
    eos_seen: usize,
    buffer: std::collections::VecDeque<(K, Vec<V>)>,
    stats: ReceiverStats,
}

impl<K: Key, V: Value> MpidStream<'_, K, V> {
    /// Next partially-merged group, or `None` after every mapper's
    /// end-of-stream marker.
    pub fn next_group(&mut self) -> MpidResult<Option<(K, Vec<V>)>> {
        loop {
            if let Some(g) = self.buffer.pop_front() {
                return Ok(Some(g));
            }
            if self.eos_seen >= self.cfg.n_mappers {
                return Ok(None);
            }
            match recv_frame_body(self.comm, self.timeout, &mut self.stats)? {
                None => self.eos_seen += 1,
                Some((body, src)) => {
                    let codec_err = |err| MpidError::Codec {
                        source_rank: src,
                        err,
                    };
                    let mut reader = FrameReader::new(&body).map_err(codec_err)?;
                    while let Some(g) = reader.next_group::<K, V>().map_err(codec_err)? {
                        self.stats.groups_in += 1;
                        self.buffer.push_back(g);
                    }
                }
            }
        }
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Kv;
    use crate::realign::FrameBuilder;
    use mpi_rt::Universe;

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
    /// path's merge.
    fn merged<K: Key, V: Value>(arrivals: &[(Rank, Bytes)], threads: usize) -> Grouped<K, V> {
        let runs = arrivals
            .iter()
            .map(|(src, body)| sort_frame::<K, V>(body.clone(), *src).unwrap())
            .collect();
        merge_by_rank::<K, V>(runs, threads).unwrap().0
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
        let got: Grouped<String, u64> = merged(&[(1, f)], 1);
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
            for threads in [1, 2, 4, 8] {
                assert_eq!(
                    merged::<String, u64>(arrival, threads),
                    want,
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn empty_frames_and_no_frames_merge_to_nothing() {
        let empty = frame::<String, u64>(&[]);
        assert!(merged::<String, u64>(&[], 1).is_empty());
        assert!(merged::<String, u64>(&[], 4).is_empty());
        assert!(merged::<String, u64>(&[(1, empty.clone())], 2).is_empty());
        let f = frame(&[(s("x"), vec![1u64])]);
        let got: Grouped<String, u64> = merged(&[(1, empty.clone()), (1, f), (2, empty)], 2);
        assert_eq!(got, vec![(s("x"), vec![1])]);
    }

    #[test]
    fn one_run_and_two_hundred_runs() {
        let single = frame(&[(s("q"), vec![1u64]), (s("p"), vec![2])]);
        let got: Grouped<String, u64> = merged(&[(1, single)], 1);
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
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                merged::<String, u64>(&arrivals, threads),
                want,
                "threads {threads}"
            );
        }
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
        for threads in [1, 2, 4] {
            assert_eq!(
                merged::<String, u64>(&[(1, f1.clone()), (2, f2.clone())], threads),
                want
            );
        }
    }

    #[test]
    fn integer_and_comparator_less_keys_merge_like_their_ord() {
        let ints = [3i64, -7, i64::MIN, 0, i64::MAX, -7];
        let f = frame(&ints.map(|k| (k, vec![k as u64])));
        let got: Grouped<i64, u64> = merged(&[(1, f.clone()), (2, f)], 2);
        let keys: Vec<i64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![i64::MIN, -7, 0, 3, i64::MAX]);
        assert_eq!(got[1].1, vec![-7i64 as u64; 4]);

        // Tuples have no encoded comparator: the decoded-key fallback.
        assert!(<(String, u64)>::encoded_cmp().is_none());
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
        for threads in [1, 2, 4] {
            let got: Grouped<(String, u64), u64> =
                merged(&[(2, f2.clone()), (1, f1.clone())], threads);
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn a_bad_key_or_value_names_its_source_rank() {
        // Framing is valid, content is not: the key is not UTF-8.
        let bad_key = frame(&[(vec![0xffu8, 0xfe], vec![1u64])]);
        let good = frame(&[(s("ok"), vec![1u64])]);
        let runs = vec![
            sort_frame::<String, u64>(good, 1).unwrap(),
            sort_frame::<String, u64>(bad_key, 2).unwrap(),
        ];
        let err = merge_by_rank::<String, u64>(runs, 2).unwrap_err();
        assert!(matches!(
            err,
            MpidError::Codec {
                source_rank: 2,
                err: CodecError::Corrupt(_)
            }
        ));
    }

    #[test]
    fn hostile_group_count_is_a_codec_error_naming_the_mapper() {
        // One real group under a count header claiming u32::MAX of them.
        let mut wire = vec![MARKER_PLAIN];
        wire.extend_from_slice(&frame(&[(s("k"), vec![7u64])]));
        wire[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        let wire = Bytes::from(wire);
        let results = Universe::run(2, move |comm| {
            if comm.rank() == 1 {
                comm.send_bytes(0, tags::DATA, wire.clone()).unwrap();
                comm.send_bytes(0, tags::DATA, Bytes::new()).unwrap();
                return None;
            }
            let cfg = MpidConfig {
                n_mappers: 1,
                n_reducers: 1,
                ..Default::default()
            };
            Some(MpidReceiver::<String, u64>::new(comm, cfg).recv())
        });
        assert_eq!(
            results[0],
            Some(Err(MpidError::Codec {
                source_rank: 1,
                err: CodecError::Truncated,
            }))
        );
    }
}
