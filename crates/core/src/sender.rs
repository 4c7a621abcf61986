//! The mapper-side `MPI_D_Send` pipeline (paper Figure 4, left half):
//! hash-table buffering → local combining → hash-mod partition selection →
//! data realignment → `MPI_Send`/`MPI_Isend` of contiguous frames.
//!
//! The buffer is a byte table (`ByteTable`): keys live as encoded bytes in
//! a flat arena, hashed and compared as raw slices, and (without a combiner)
//! values are appended to a second arena as encoded bytes. Typed work per
//! record is one `Kv::encode` of the key and value plus one partition hash
//! at first sight of each key; the partition index is stored on the entry,
//! so a spill never decodes a key, to route it or to sort it.
//! Frame building is a straight memcpy of already-encoded bytes
//! ([`FrameBuilder::begin_group_raw`]), and frames are born in wire form
//! (`new_wire`) so an uncompressed spill ships each frame as a refcounted
//! [`Bytes`] with no marker-prefix copy.
//!
//! ## Key order
//!
//! Every partition of every spill leaves in ascending key order, as a
//! Hadoop map-side spill does after its sort. The table holds keys in
//! insertion order, so `realign_table` sorts a compact `(prefix, entry)`
//! index per partition, the prefix being the key's
//! [`Key::encoded_prefix`]: an LSD radix sort over the prefix bytes that
//! skips every byte all entries share, then one pass that orders by their
//! bytes ([`Key::encoded_cmp`]) only the runs of equal prefixes
//! [`Key::prefix_is_exact`] does not vouch for. A key type that keeps the
//! default prefix (pairs) is one such run, sorted by its bytes alone. This
//! is the only sort of the shuffle: the receiver merges the sorted frames
//! (see [`crate::receiver`]) and re-sorts none of them, and its drain
//! reads each frame body front to back instead of jumping around it once
//! per group.
//!
//! ## Spill accounting and determinism
//!
//! `buffered_bytes` counts the *raw* encoded size of every pair accepted
//! this epoch — Hadoop's `io.sort.mb` semantics — not the post-combine
//! table size. That makes the spill cadence a pure function of the input
//! stream and `spill_threshold_bytes`: independent of combiner shrinkage
//! and of `MpidConfig::mem_budget`. With a combiner the spill epochs *are*
//! observable downstream (each epoch emits one accumulator per key), so
//! this purity is exactly what keeps grouped output bit-identical across
//! memory budgets.

use crate::combine::Combiner;
use crate::compress;
use crate::config::{tags, MpidConfig, Role};
use crate::error::MpidResult;
use crate::kv::{Key, Kv, Value};
use crate::partition::{HashPartitioner, Partitioner};
use crate::pool::PoolCharge;
use crate::realign::{fits_single_valued, FrameBuilder, MARKER_LZ};
use crate::shuffle::{self, ShipCtx, ShuffleKind, ShuffleStrategy};
use crate::stats::SenderStats;
use bytes::{Bytes, BytesMut};
use mpi_rt::{Comm, RankTrace, SendRequest};
use obs::ArgValue;
use std::sync::Arc;

/// Retired compression scratch buffers kept for reuse; anything beyond this
/// is dropped so a burst of large spills doesn't pin memory forever.
const WIRE_POOL_CAP: usize = 8;

/// FxHash-style mixing over a byte slice, 8 bytes at a time.
///
/// A multiply carries bits only upward, so the product of every round but
/// the last has its high half folded into its low half before the next
/// round; [`bucket_of`] folds the last one. Without the fold, bytes 1–7 of
/// a word reach the slot index only through the 5 bits the next round's
/// `rotate_left(5)` brings down: the 20 000 five-letter words of the Zipf
/// benchmark walked 13 slots per lookup, and 262 144 one-to-four-letter
/// words 14, instead of about one.
fn hash_bytes(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    let fold = |p: u64| p ^ (p >> 32);
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = fold(mix(h, u64::from_le_bytes(c.try_into().expect("sized"))));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = fold(mix(h, u64::from_le_bytes(w)));
    }
    // Fold in the length so "ab" and "ab\0...\0" can't collide via padding.
    mix(h, bytes.len() as u64)
}

/// One buffered key. With a combiner the value side is a typed running
/// accumulator; without one it is a chain of encoded-value nodes in the
/// value arena. The partition index is computed once, at insert, so spills
/// can route entries without decoding keys.
struct Entry<V> {
    hash: u64,
    key_off: u32,
    key_end: u32,
    /// Destination partition (reducer index), fixed at insert.
    part: u32,
    acc: Option<V>,
    /// Head/tail of the value-node chain, as node index + 1 (0 = empty).
    head: u32,
    tail: u32,
    n_values: u32,
}

/// A contiguous run of encoded value bytes belonging to one key.
struct ValNode {
    off: u32,
    end: u32,
    /// Next node index + 1, or 0.
    next: u32,
}

/// Open-addressed hash table over encoded key bytes. Shared by the sender
/// and the in-node combine leader ([`crate::shuffle`]).
pub(crate) struct ByteTable<V> {
    /// Encoded keys, concatenated. A probe encodes the incoming key at the
    /// tail, hashes that region, and truncates it back off on a hit — so
    /// duplicate keys never allocate.
    keys: BytesMut,
    /// Encoded values (list mode only), concatenated in arrival order.
    vals: BytesMut,
    nodes: Vec<ValNode>,
    entries: Vec<Entry<V>>,
    /// Open-addressed slots, power-of-two length, kept at most half full
    /// (linear probing degrades sharply past that). Each slot packs the
    /// key hash's high 32 bits with the entry index + 1 (0 = empty), so a
    /// collision chain is walked with nothing but sequential slot loads —
    /// the entry and its key bytes are only touched when the tag matches.
    buckets: Vec<u64>,
}

/// Slot value for entry `idx` with hash `hash`: tag in the high half,
/// `idx + 1` in the low half.
fn slot_value(hash: u64, idx: usize) -> u64 {
    ((hash >> 32) << 32) | (idx as u64 + 1)
}

/// Starting probe slot for `hash` in a table of `mask + 1` buckets. The
/// hash's low bits alone are a poor bucket index — the mixer ends in a
/// multiply, and the low bits of a product depend only on the low bits of
/// its operands, so dense key sets (short sequential words) collapse into a
/// handful of buckets and linear probing degrades to long chain scans.
/// Folding the high half in restores the multiply's well-mixed bits.
fn bucket_of(hash: u64, mask: usize) -> usize {
    (hash ^ (hash >> 32)) as usize & mask
}

impl<V> ByteTable<V> {
    pub(crate) fn new() -> Self {
        ByteTable {
            keys: BytesMut::new(),
            vals: BytesMut::new(),
            nodes: Vec::new(),
            entries: Vec::new(),
            buckets: vec![0; 64],
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes held in the key and value arenas.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.keys.len() + self.vals.len()
    }

    fn key_bytes(&self, e: &Entry<V>) -> &[u8] {
        &self.keys[e.key_off as usize..e.key_end as usize]
    }

    /// Find the entry whose key bytes are `keys[key_off..]` (the probe key
    /// encoded at the arena tail), or insert a fresh entry for it. Returns
    /// `(entry_index, inserted)`; on a hit the probe key is truncated away.
    fn probe(&mut self, key_off: usize) -> (usize, bool) {
        let hash = hash_bytes(&self.keys[key_off..]);
        let tag = (hash >> 32) << 32;
        let mask = self.buckets.len() - 1;
        let mut slot = bucket_of(hash, mask);
        loop {
            let b = self.buckets[slot];
            if b == 0 {
                break;
            }
            if (b >> 32) << 32 == tag {
                let idx = (b as u32 as usize) - 1;
                let e = &self.entries[idx];
                if e.hash == hash
                    && self.keys[e.key_off as usize..e.key_end as usize] == self.keys[key_off..]
                {
                    self.keys.truncate(key_off);
                    return (idx, false);
                }
            }
            slot = (slot + 1) & mask;
        }
        let idx = self.entries.len();
        self.entries.push(Entry {
            hash,
            key_off: key_off as u32,
            key_end: self.keys.len() as u32,
            part: 0,
            acc: None,
            head: 0,
            tail: 0,
            n_values: 0,
        });
        self.buckets[slot] = slot_value(hash, idx);
        if self.entries.len() * 2 >= self.buckets.len() {
            self.grow();
        }
        (idx, true)
    }
}

/// A combiner's fold step, type-erased for [`ByteTable::push`]: folds the
/// incoming value into the stored accumulator.
pub(crate) type CombineFold<'a, V> = &'a mut dyn FnMut(&mut V, V);

impl<V: Kv> ByteTable<V> {
    /// Buffer one record: insert or fold `(key, value)`. `part_of` is
    /// invoked only when the key is first seen, to fix the entry's
    /// partition. `combine` (present iff the sender has a combiner) folds
    /// the value into an existing accumulator. Returns `true` when the pair
    /// was combined away rather than stored.
    pub(crate) fn push<K: Kv>(
        &mut self,
        key: &K,
        value: V,
        part_of: impl FnOnce() -> u32,
        combine: Option<CombineFold<'_, V>>,
    ) -> bool {
        // Encode the key at the arena tail and probe by raw bytes: a
        // duplicate key costs a hash + memcmp, never an owned-key insert.
        let key_off = self.keys.len();
        key.encode(&mut self.keys);
        let (idx, inserted) = self.probe(key_off);
        if inserted {
            self.entries[idx].part = part_of();
            if combine.is_some() {
                self.entries[idx].acc = Some(value);
                self.entries[idx].n_values = 1;
            } else {
                let val_off = self.vals.len();
                value.encode(&mut self.vals);
                self.link_value(idx, val_off);
            }
            false
        } else {
            match combine {
                Some(f) => {
                    let acc = self.entries[idx]
                        .acc
                        .as_mut()
                        .expect("combiner entry without accumulator");
                    f(acc, value);
                    true
                }
                None => {
                    let val_off = self.vals.len();
                    value.encode(&mut self.vals);
                    self.link_value(idx, val_off);
                    false
                }
            }
        }
    }
}

impl<V> ByteTable<V> {
    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        let mask = new_len - 1;
        let mut buckets = vec![0u64; new_len];
        for (i, e) in self.entries.iter().enumerate() {
            let mut slot = bucket_of(e.hash, mask);
            while buckets[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            buckets[slot] = slot_value(e.hash, i);
        }
        self.buckets = buckets;
    }

    /// Append encoded value bytes `vals[val_off..]` (already written at the
    /// arena tail) to entry `idx`'s chain.
    fn link_value(&mut self, idx: usize, val_off: usize) {
        let node = self.nodes.len() as u32 + 1;
        self.nodes.push(ValNode {
            off: val_off as u32,
            end: self.vals.len() as u32,
            next: 0,
        });
        let e = &mut self.entries[idx];
        if e.tail == 0 {
            e.head = node;
        } else {
            self.nodes[e.tail as usize - 1].next = node;
        }
        e.tail = node;
        e.n_values += 1;
    }

    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.vals.clear();
        self.nodes.clear();
        self.entries.clear();
        // Shrink the bucket array back if a spike grew it; steady state keeps
        // its size and just zeroes it.
        if self.buckets.len() > 1 << 20 {
            self.buckets = vec![0; 1 << 20];
        } else {
            self.buckets.fill(0);
        }
    }
}

/// Compression scratch state: retired wire buffers recycled across spills.
pub(crate) struct WireShop {
    pool: Vec<Vec<u8>>,
    /// Compressed spills that reused a pooled scratch buffer.
    pub(crate) hits: u64,
    /// Compressed spills that had to allocate a fresh scratch buffer.
    pub(crate) misses: u64,
}

impl WireShop {
    pub(crate) fn new() -> Self {
        WireShop {
            pool: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }
}

/// Reusable per-spill scratch: per-partition `(key prefix, entry)` indexes,
/// each with whether all its groups fit the single-valued frame layout, and
/// the radix sort's second buffer. Steady state allocates nothing.
pub(crate) struct SpillScratch {
    parts: Vec<(Vec<(u64, u32)>, bool)>,
    radix: Vec<(u64, u32)>,
}

impl SpillScratch {
    pub(crate) fn new() -> Self {
        SpillScratch {
            parts: Vec::new(),
            radix: Vec::new(),
        }
    }
}

/// Sort `index` by prefix: an LSD radix sort, one counting pass per prefix
/// byte, low byte first, with `buf` as its second buffer. One histogram
/// pass counts every byte at once, and a byte that every entry shares is
/// skipped, since a pass over it would leave the order as it is: short
/// string keys vary in only a few of their eight bytes.
fn radix_sort_by_prefix(index: &mut Vec<(u64, u32)>, buf: &mut Vec<(u64, u32)>) {
    let n = index.len();
    let mut counts = [[0u32; 256]; 8];
    for &(prefix, _) in index.iter() {
        for (byte, count) in counts.iter_mut().enumerate() {
            count[usize::from((prefix >> (8 * byte)) as u8)] += 1;
        }
    }
    // Every pass writes each of the `n` slots once: size `buf` once here.
    buf.clear();
    buf.resize(n, (0, 0));
    for (byte, count) in counts.iter_mut().enumerate() {
        if count.iter().any(|&c| c as usize == n) {
            continue;
        }
        // Counts become each digit's first slot.
        let mut at = 0;
        for c in count.iter_mut() {
            let k = *c;
            *c = at;
            at += k;
        }
        for &entry in index.iter() {
            let slot = &mut count[usize::from((entry.0 >> (8 * byte)) as u8)];
            buf[*slot as usize] = entry;
            *slot += 1;
        }
        std::mem::swap(index, buf);
    }
}

/// Put one partition's `(prefix, entry)` index in ascending key order:
/// radix-sort the prefixes, then order by the key bytes each run of equal
/// prefixes that is not a whole key.
fn sort_partition<K: Key, V>(
    table: &ByteTable<V>,
    index: &mut Vec<(u64, u32)>,
    radix: &mut Vec<(u64, u32)>,
) {
    radix_sort_by_prefix(index, radix);
    let key_bytes = |e: &(u64, u32)| table.key_bytes(&table.entries[e.1 as usize]);
    for tie in index.chunk_by_mut(|a, b| a.0 == b.0) {
        if tie.len() > 1 && !K::prefix_is_exact(tie[0].0) {
            tie.sort_unstable_by(|a, b| K::encoded_cmp(key_bytes(a), key_bytes(b)));
        }
    }
}

/// The wire frames of one realigned table, plus the stat deltas that
/// describe building them.
pub(crate) struct SpillOutput {
    /// `(partition, wire frames)` for each non-empty partition, ascending.
    pub(crate) shipments: Vec<(u32, Vec<Bytes>)>,
    pub(crate) groups: u64,
    pub(crate) frames: u64,
    /// Frame body bytes before compression (markers excluded).
    pub(crate) precompress: u64,
    /// Bytes as shipped (markers included, compression applied).
    pub(crate) wire_bytes: u64,
}

/// Realign a table into per-partition wire frames: the spill core shared by
/// the sender and the in-node combine leader. Entries are grouped by their
/// stored partition, put in ascending key order (see the module doc), built
/// into fixed-size wire frames, and compressed when configured and
/// profitable. Partitions come out ascending — the ship order.
pub(crate) fn realign_table<K: Key, V: Value>(
    table: &ByteTable<V>,
    n_red: usize,
    frame_bytes: usize,
    do_compress: bool,
    shop: &mut WireShop,
    scratch: &mut SpillScratch,
) -> SpillOutput {
    let mut out = SpillOutput {
        shipments: Vec::new(),
        groups: 0,
        frames: 0,
        precompress: 0,
        wire_bytes: 0,
    };
    // Hash-mod partition selection over entry indices, straight from the
    // partition stored at insert; the per-reducer indexes persist across
    // spills so steady state allocates nothing here. Each entry carries its
    // key's prefix into the sort.
    // The same pass picks each partition's frame layout: single-valued
    // (no per-group count on the wire) when every group bound for it is —
    // what a combiner leaves, and what distinct keys produce.
    scratch.parts.resize_with(n_red, || (Vec::new(), true));
    for (i, e) in table.entries.iter().enumerate() {
        let key = table.key_bytes(e);
        let (index, single) = &mut scratch.parts[e.part as usize];
        index.push((K::encoded_prefix(key), i as u32));
        *single &= fits_single_valued(key.len(), e.n_values);
    }
    for (p, (index, single)) in scratch.parts.iter_mut().enumerate() {
        if index.is_empty() {
            continue;
        }
        sort_partition::<K, V>(table, index, &mut scratch.radix);
        out.groups += index.len() as u64;
        let mut builder = FrameBuilder::new_wire(frame_bytes).single_valued(*single);
        for &(_, i) in index.iter() {
            let e = &table.entries[i as usize];
            builder.begin_group_raw(table.key_bytes(e), e.n_values);
            if let Some(acc) = &e.acc {
                builder.push_value(acc);
            } else {
                let mut node = e.head;
                while node != 0 {
                    let n = &table.nodes[node as usize - 1];
                    builder.push_raw(&table.vals[n.off as usize..n.end as usize]);
                    node = n.next;
                }
            }
            builder.end_group();
        }
        index.clear();
        *single = true;
        let mut wires = Vec::new();
        for frame in builder.finish() {
            out.frames += 1;
            // The marker byte is wire overhead, not realigned data:
            // precompress counts the frame body only.
            out.precompress += frame.len() as u64 - 1;
            // Frame wire format: 1-byte marker (0 = plain, 1 = LZ), then the
            // (possibly compressed) frame body. Compression is kept only
            // when it actually shrinks the body; plain frames ship the
            // builder's buffer as-is, zero-copy.
            let wire = if do_compress {
                let body = &frame[1..];
                let packed = compress::compress(body);
                if packed.len() < body.len() {
                    let mut wire = match shop.pool.pop() {
                        Some(w) => {
                            shop.hits += 1;
                            w
                        }
                        None => {
                            shop.misses += 1;
                            Vec::new()
                        }
                    };
                    wire.clear();
                    wire.reserve(packed.len() + 1);
                    wire.push(MARKER_LZ);
                    wire.extend_from_slice(&packed);
                    let shipped = Bytes::copy_from_slice(&wire);
                    if shop.pool.len() < WIRE_POOL_CAP {
                        shop.pool.push(wire);
                    }
                    shipped
                } else {
                    frame
                }
            } else {
                frame
            };
            out.wire_bytes += wire.len() as u64;
            wires.push(wire);
        }
        out.shipments.push((p as u32, wires));
    }
    out
}

/// Mapper-side handle: buffer, combine, partition, realign, send.
///
/// `MPI_D_Send(key, value)` is [`MpidSender::send`]; it "will buffer the
/// key-value pairs in a hash table, and return the invocation procedure
/// immediately". Once the buffer crosses the spill threshold, data is
/// realigned into fixed-size frames and pushed to the owning reducers.
/// [`MpidSender::finish`] flushes the remainder and broadcasts end-of-stream.
pub struct MpidSender<'a, K: Key, V: Value> {
    comm: &'a Comm,
    cfg: MpidConfig,
    combiner: Option<Arc<dyn Combiner<V>>>,
    partitioner: Arc<dyn Partitioner<K>>,
    table: ByteTable<V>,
    /// Raw encoded bytes accepted this epoch (see the module doc on
    /// accounting); reset at spill.
    buffered_bytes: usize,
    /// The epoch's raw bytes charged against the job's block pool (no-op
    /// without one); released at spill.
    charge: PoolCharge,
    pending: Vec<SendRequest>,
    stats: SenderStats,
    finished: bool,
    trace: Option<SenderTrace>,
    scratch: SpillScratch,
    /// The sender→wire policy (see [`crate::shuffle`]), built lazily at the
    /// first spill so `with_combiner` can run first.
    strategy: Option<Box<dyn ShuffleStrategy<K, V>>>,
    shop: WireShop,
}

/// Pipeline-stage tracing state, active when the universe was launched with
/// [`mpi_rt::Universe::run_traced`]. Stage spans (`buffer` → `combine` →
/// `realign` → `ship`, cat `mpid.stage`) land on the rank's own trace lane;
/// span args carry the [`SenderStats`] deltas for the interval, so the
/// counters are recoverable from the trace alone.
struct SenderTrace {
    rt: Arc<RankTrace>,
    /// When the current buffering interval started (first `send` after the
    /// last spill).
    buffer_start: Option<u64>,
    /// Wall time spent inside the combiner during the current interval.
    combine_ns: u64,
    /// Stats snapshot at the end of the previous spill, for deltas.
    prev: SenderStats,
}

impl<'a, K: Key, V: Value> MpidSender<'a, K, V> {
    pub(crate) fn new(comm: &'a Comm, cfg: MpidConfig) -> Self {
        let charge = PoolCharge::new(cfg.pool.clone());
        MpidSender {
            comm,
            cfg,
            combiner: None,
            partitioner: Arc::new(HashPartitioner),
            table: ByteTable::new(),
            buffered_bytes: 0,
            charge,
            pending: Vec::new(),
            stats: SenderStats::default(),
            finished: false,
            trace: comm.trace().map(|rt| SenderTrace {
                rt: rt.clone(),
                buffer_start: None,
                combine_ns: 0,
                prev: SenderStats::default(),
            }),
            scratch: SpillScratch::new(),
            strategy: None,
            shop: WireShop::new(),
        }
    }

    /// The installed strategy, built on first use (after `with_combiner`).
    fn take_strategy(&mut self) -> Box<dyn ShuffleStrategy<K, V>> {
        match self.strategy.take() {
            Some(s) => s,
            None => shuffle::build_strategy(self.comm, &self.cfg, self.combiner.clone()),
        }
    }

    /// Install a combiner ("the combine function ... is always assigned as
    /// the reduce function" in Hadoop practice). Must be called before the
    /// first [`MpidSender::send`].
    pub fn with_combiner(mut self, c: impl Combiner<V> + 'static) -> Self {
        assert!(self.table.is_empty(), "with_combiner after sends began");
        self.combiner = Some(Arc::new(c));
        self
    }

    /// Replace the default [`HashPartitioner`]. Must be called before the
    /// first [`MpidSender::send`] — entries memoize their partition.
    pub fn with_partitioner(mut self, p: impl Partitioner<K> + 'static) -> Self {
        assert!(self.table.is_empty(), "with_partitioner after sends began");
        self.partitioner = Arc::new(p);
        self
    }

    /// `MPI_D_Send(key, value)`: buffer (and locally combine) the pair,
    /// spilling realigned frames to reducers when the buffer is full.
    pub fn send(&mut self, key: K, value: V) -> MpidResult<()> {
        assert!(!self.finished, "send after finish");
        self.stats.pairs_in += 1;
        if let Some(ts) = &mut self.trace {
            if ts.buffer_start.is_none() {
                ts.buffer_start = Some(ts.rt.now_ns());
            }
        }
        // Raw stream accounting: every pair charges its full encoded size,
        // whether or not the combiner folds it away (see module doc).
        let added = key.wire_size() + value.wire_size();
        self.buffered_bytes += added;
        self.charge.grow(added);
        let n_red = self.cfg.n_reducers;
        let table = &mut self.table;
        let partitioner = &self.partitioner;
        let part_of = || partitioner.partition(&key, n_red) as u32;
        match &self.combiner {
            Some(c) => {
                let trace = &mut self.trace;
                let mut fold = |acc: &mut V, v: V| {
                    let t0 = trace.as_ref().map(|ts| ts.rt.now_ns());
                    c.combine(acc, v);
                    if let Some(t0) = t0 {
                        let ts = trace.as_mut().expect("trace checked above");
                        ts.combine_ns += ts.rt.now_ns().saturating_sub(t0);
                    }
                };
                if table.push(&key, value, part_of, Some(&mut fold)) {
                    self.stats.pairs_combined += 1;
                }
            }
            None => {
                table.push(&key, value, part_of, None);
            }
        }
        if self.buffered_bytes >= self.cfg.spill_threshold_bytes {
            self.spill()?;
        }
        Ok(())
    }

    /// Raw bytes accepted since the last spill (diagnostics; spilling resets
    /// it).
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// Force a spill of the current buffer contents.
    pub fn spill(&mut self) -> MpidResult<()> {
        if self.table.is_empty() {
            return Ok(());
        }
        // Close the buffering interval: one "buffer" span per spill, with a
        // nested "combine" span for the time spent folding values.
        let spill_start = self.trace.as_ref().map(|ts| ts.rt.now_ns());
        if let (Some(ts), Some(now)) = (&mut self.trace, spill_start) {
            if let Some(b0) = ts.buffer_start.take() {
                ts.rt.complete(
                    obs::names::SPAN_BUFFER,
                    obs::names::CAT_MPID_STAGE,
                    b0,
                    now,
                    vec![
                        (
                            "pairs_in",
                            ArgValue::U64(self.stats.pairs_in - ts.prev.pairs_in),
                        ),
                        (
                            "pairs_combined",
                            ArgValue::U64(self.stats.pairs_combined - ts.prev.pairs_combined),
                        ),
                        ("buffered_bytes", ArgValue::U64(self.buffered_bytes as u64)),
                    ],
                );
                if ts.combine_ns > 0 {
                    ts.rt.complete(
                        obs::names::SPAN_COMBINE,
                        obs::names::CAT_MPID_STAGE,
                        now - ts.combine_ns.min(now - b0),
                        now,
                        Vec::new(),
                    );
                    ts.combine_ns = 0;
                }
            }
        }
        self.stats.spills += 1;
        self.buffered_bytes = 0;
        // Realign into per-partition wire frames.
        let out = realign_table::<K, V>(
            &self.table,
            self.cfg.n_reducers,
            self.cfg.frame_bytes,
            self.cfg.compress,
            &mut self.shop,
            &mut self.scratch,
        );
        // Arena high-water for this spill, captured before the clear: the
        // table is at its fullest right here.
        let table_bytes = self.table.arena_bytes() as u64;
        let table_entries = self.table.len() as u64;
        self.table.clear();
        self.stats.groups_out += out.groups;
        self.stats.frames += out.frames;
        self.stats.bytes_precompress += out.precompress;
        self.stats.bytes_sent += out.wire_bytes;
        self.charge.clear();
        let ship_start = if let (Some(ts), Some(t0)) = (&self.trace, spill_start) {
            let now = ts.rt.now_ns();
            ts.rt.complete(
                obs::names::SPAN_REALIGN,
                obs::names::CAT_MPID_STAGE,
                t0,
                now,
                vec![
                    (
                        "groups",
                        ArgValue::U64(self.stats.groups_out - ts.prev.groups_out),
                    ),
                    ("frames", ArgValue::U64(self.stats.frames - ts.prev.frames)),
                    (
                        "frame_bytes",
                        ArgValue::U64(self.stats.bytes_precompress - ts.prev.bytes_precompress),
                    ),
                ],
            );
            Some(now)
        } else {
            None
        };
        // Hand the spill to the shuffle strategy: baseline ships straight to
        // the reducers (use_isend overlaps map computation with
        // communication — the paper's future-work item, as an ablation
        // switch); in-node members relay to their leader.
        let mut strategy = self.take_strategy();
        {
            let mut ctx = ShipCtx {
                comm: self.comm,
                cfg: &self.cfg,
                pending: &mut self.pending,
            };
            strategy.ship(&mut ctx, out)?;
        }
        self.strategy = Some(strategy);
        if let (Some(ts), Some(t0)) = (&mut self.trace, ship_start) {
            ts.rt.complete_since(
                obs::names::SPAN_SHIP,
                obs::names::CAT_MPID_STAGE,
                t0,
                vec![
                    ("spill", ArgValue::U64(self.stats.spills)),
                    ("frames", ArgValue::U64(self.stats.frames - ts.prev.frames)),
                    (
                        "bytes_sent",
                        ArgValue::U64(self.stats.bytes_sent - ts.prev.bytes_sent),
                    ),
                    ("isend", ArgValue::Bool(self.cfg.use_isend)),
                ],
            );
            ts.prev = self.stats.clone();
            // Memory-accounting samples, one set per spill: the profile's
            // high-water marks come from the max over these.
            ts.rt.counter(
                obs::names::CTR_MEM_TABLE_BYTES,
                obs::names::CAT_MPID_MEM,
                table_bytes as f64,
            );
            ts.rt.counter(
                obs::names::CTR_MEM_TABLE_ENTRIES,
                obs::names::CAT_MPID_MEM,
                table_entries as f64,
            );
            ts.rt.counter(
                obs::names::CTR_MEM_SPILLS,
                obs::names::CAT_MPID_MEM,
                self.stats.spills as f64,
            );
            ts.rt.counter(
                obs::names::CTR_MEM_WIRE_POOL_HITS,
                obs::names::CAT_MPID_MEM,
                self.shop.hits as f64,
            );
            ts.rt.counter(
                obs::names::CTR_MEM_WIRE_POOL_MISSES,
                obs::names::CAT_MPID_MEM,
                self.shop.misses as f64,
            );
            if let Some(pool) = &self.cfg.pool {
                ts.rt.counter(
                    obs::names::CTR_MEM_POOL_LIVE,
                    obs::names::CAT_MPID_MEM,
                    pool.live() as f64,
                );
                ts.rt.counter(
                    obs::names::CTR_MEM_POOL_HIGH_WATER,
                    obs::names::CAT_MPID_MEM,
                    pool.high_water() as f64,
                );
                ts.rt.counter(
                    obs::names::CTR_MEM_POOL_BUDGET,
                    obs::names::CAT_MPID_MEM,
                    pool.budget() as f64,
                );
            }
        }
        Ok(())
    }

    /// Flush everything, wait for outstanding `Isend`s, and deliver an
    /// end-of-stream marker to every reducer. Returns the sender statistics.
    pub fn finish(mut self) -> MpidResult<SenderStats> {
        let t0 = self.trace.as_ref().map(|ts| ts.rt.now_ns());
        self.spill()?;
        // Flush the shuffle strategy before end-of-stream: in-node leaders
        // drain their members' relay streams and ship the merged frames
        // here (isends land in `pending`, waited below).
        let mut strategy = self.take_strategy();
        let report = {
            let mut ctx = ShipCtx {
                comm: self.comm,
                cfg: &self.cfg,
                pending: &mut self.pending,
            };
            strategy.flush(&mut ctx)?
        };
        drop(strategy);
        for req in self.pending.drain(..) {
            req.wait();
        }
        // End-of-stream travels on the DATA tag as an empty payload (real
        // frames are never empty — they carry at least a group-count
        // header), so reducers can receive with a tag filter and never
        // intercept unrelated traffic such as collective messages.
        for r in 0..self.cfg.n_reducers {
            let dst = Role::reducer_rank(&self.cfg, r);
            self.comm.send::<u8>(dst, tags::DATA, &[])?;
        }
        self.finished = true;
        // The closing span subsumes the SenderStats counters: the whole
        // sender life is recoverable from the trace without the struct.
        if let (Some(ts), Some(t0)) = (&self.trace, t0) {
            ts.rt.complete_since(
                obs::names::SPAN_SENDER_FINISH,
                obs::names::CAT_MPID_STAGE,
                t0,
                vec![
                    ("pairs_in", ArgValue::U64(self.stats.pairs_in)),
                    ("pairs_combined", ArgValue::U64(self.stats.pairs_combined)),
                    ("groups_out", ArgValue::U64(self.stats.groups_out)),
                    ("spills", ArgValue::U64(self.stats.spills)),
                    ("frames", ArgValue::U64(self.stats.frames)),
                    ("bytes_sent", ArgValue::U64(self.stats.bytes_sent)),
                    (
                        "bytes_precompress",
                        ArgValue::U64(self.stats.bytes_precompress),
                    ),
                    ("combine_ratio", ArgValue::F64(self.stats.combine_ratio())),
                ],
            );
            // Shuffle-strategy counters, only off the baseline path so the
            // baseline trace stays bit-identical to the pre-strategy sender.
            if self.cfg.shuffle != ShuffleKind::Baseline {
                ts.rt.counter(
                    obs::names::CTR_SHUFFLE_STRATEGY,
                    obs::names::CAT_MPID_SHUFFLE,
                    report.kind_tag as f64,
                );
                ts.rt.counter(
                    obs::names::CTR_SHUFFLE_WIRE_SAVED,
                    obs::names::CAT_MPID_SHUFFLE,
                    report.wire_in.saturating_sub(report.wire_out) as f64,
                );
                if report.host_groups_in > 0 {
                    ts.rt.counter(
                        obs::names::CTR_SHUFFLE_COMBINE_RATIO,
                        obs::names::CAT_MPID_SHUFFLE,
                        report.host_groups_out as f64 / report.host_groups_in as f64,
                    );
                }
            }
        }
        Ok(self.stats.clone())
    }
}

impl<K: Key, V: Value> Drop for MpidSender<'_, K, V> {
    fn drop(&mut self) {
        // A sender dropped without finish() would leave reducers waiting for
        // an EOS forever in larger jobs; make the bug loud in tests. (Panics
        // in flight take precedence — don't double-panic.)
        let buffered = self.table.len();
        if !self.finished && !std::thread::panicking() && buffered > 0 {
            eprintln!("warning: MpidSender dropped with {buffered} buffered keys and no finish()");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Base-26 lowercase spelling of `r` ("a", …, "z", "ba", …).
    fn word(mut r: usize) -> String {
        let mut out = Vec::new();
        loop {
            out.push(b'a' + (r % 26) as u8);
            r /= 26;
            if r == 0 {
                break;
            }
        }
        out.reverse();
        String::from_utf8(out).unwrap()
    }

    /// Mean slots a lookup of each stored key walks, its own slot included.
    fn mean_probe(keys: impl Iterator<Item = String>) -> f64 {
        let mut table = ByteTable::<u64>::new();
        for k in keys {
            table.push(&k, 1, || 0, Some(&mut |acc: &mut u64, v| *acc += v));
        }
        let mask = table.buckets.len() - 1;
        let walked: usize = (0..table.buckets.len())
            .filter(|&slot| table.buckets[slot] != 0)
            .map(|slot| {
                let idx = table.buckets[slot] as u32 as usize - 1;
                let home = bucket_of(table.entries[idx].hash, mask);
                ((slot + mask + 1 - home) & mask) + 1
            })
            .sum();
        walked as f64 / table.len() as f64
    }

    /// Keys that differ only in a few bytes of one 8-byte word (short
    /// words behind a 4-byte length prefix) must still spread over the
    /// slots: every key byte has to reach the slot index.
    #[test]
    fn short_word_keys_average_at_most_one_and_a_half_probes() {
        // The benchmark's Zipf vocabulary: 20 000 five-letter words.
        const FIVE_LETTERS: usize = 26 + 26 * 26 + 26 * 26 * 26 + 26 * 26 * 26 * 26;
        let zipf_vocab = mean_probe((0..20_000).map(|r| word(FIVE_LETTERS + r)));
        // The distinct-keys input: one to four letters.
        let distinct = mean_probe((0..262_144).map(word));
        assert!(
            zipf_vocab <= 1.5 && distinct <= 1.5,
            "mean lookup probe: {zipf_vocab:.2} over the Zipf vocabulary, \
             {distinct:.2} over distinct keys"
        );
    }
}
