//! The mapper-side `MPI_D_Send` pipeline (paper Figure 4, left half):
//! hash-table buffering → local combining → hash-mod partition selection →
//! data realignment → `MPI_Send` of contiguous frames.
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
//!
//! The job's block pool, when there is one, is charged for the same raw
//! bytes a block ([`BLOCK_BYTES`]) at a time, so the atomics every mapper
//! shares run once per block rather than once per pair. The charge runs at
//! most a block ahead of `buffered_bytes` and never past
//! `spill_threshold_bytes`: an epoch that fills up holds exactly its raw
//! bytes when it spills. The spill takes that charge with the epoch, and
//! it is released when the epoch's frames ship.
//!
//! ## Two stages
//!
//! At [`MpidConfig::threads`] `= 1` `MPI_D_Send` folds each pair as it
//! comes, on the rank's own thread: it encodes the key at the key arena's
//! tail, probes by those bytes, asks the partitioner with the typed key
//! when the key is new, and folds or encodes the value. (Folding by blocks
//! there read 5 % slower on distinct keys and large values.) At 2 or more
//! the rank's thread keeps the accounting, the pool charge and the spill
//! decision, and appends each pair to a block of about [`BLOCK_BYTES`] by
//! raw size, key encoded and value typed. One table thread, fed full
//! blocks over a bounded channel (`BLOCKS_IN_FLIGHT`), hashes a block's
//! keys first, then probes with the stored hashes, decodes a key only to
//! ask the partitioner, once per new key, and folds or encodes each value
//! and drops it. Blocks come back empty for reuse, so a key is freed on
//! the thread that allocated it. Any value above 2 runs the same one table
//! thread. The table sees the same pairs in the same order with the same
//! spill points at every thread count, so every frame and every
//! [`SenderStats`] counter is the same.
//!
//! ## Spill a late
//!
//! At `threads = 1` a spill realigns the table and ships the frames before
//! it returns. At 2 or more it hands off the block in hand, asks the table
//! thread to realign after it, and returns to the map function. The rank
//! thread picks the frames up at a later hand-off, or waits for them at
//! the next spill or at `finish` (one epoch out at most), and ships them
//! itself, so the `Comm` never leaves it. The epoch's pool charge travels
//! with its frames, which come back before `BLOCKS_IN_FLIGHT + 1` blocks of
//! the next epoch are handed off, so a mapper holds at most
//! `spill_threshold_bytes` plus `BLOCKS_IN_FLIGHT + 2` blocks (and a pair's
//! overshoot a block). Traced, the epoch's `realign` span is then only the
//! rank thread's last hand-off: the realignment runs on the untraced table
//! thread. A panic there (a user combiner's or partitioner's) resumes on
//! the rank thread at its next hand-off, spill or `finish`.

use crate::combine::Combiner;
use crate::compress;
use crate::config::{tags, MpidConfig, Role};
use crate::error::MpidResult;
use crate::kv::{Key, Kv, Value};
use crate::partition::{HashPartitioner, Partitioner};
use crate::pool::{self, PoolCharge, Takes, BLOCK_BYTES};
use crate::realign::{fits_single_valued, FrameBuilder, MARKER_LZ};
use crate::shuffle::{self, ShipCtx, ShuffleKind, ShuffleStrategy};
use crate::stats::SenderStats;
use bytes::{Bytes, BytesMut};
use mpi_rt::{Comm, RankTrace};
use obs::ArgValue;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

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

    /// Look a key up by its encoded bytes and its [`hash_bytes`]: `Ok` with
    /// the index of the entry that holds it, or `Err` with the empty slot a
    /// new entry for it takes. The one probe of both ways in:
    /// [`ByteTable::entry`], whose key is encoded at the arena tail, and
    /// [`ByteTable::find_or_add`], whose key sits in a sender block.
    fn probe(&self, key: &[u8], hash: u64) -> Result<usize, usize> {
        let tag = (hash >> 32) << 32;
        let mask = self.buckets.len() - 1;
        let mut slot = bucket_of(hash, mask);
        loop {
            let b = self.buckets[slot];
            if b == 0 {
                return Err(slot);
            }
            if (b >> 32) << 32 == tag {
                let idx = (b as u32 as usize) - 1;
                let e = &self.entries[idx];
                if e.hash == hash && self.key_bytes(e) == key {
                    return Ok(idx);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Add an entry, bound for partition `part`, in the empty `slot` that
    /// [`ByteTable::probe`] found for the key at `keys[key_off..]`.
    fn insert(&mut self, slot: usize, hash: u64, key_off: usize, part: u32) -> usize {
        let idx = self.entries.len();
        self.entries.push(Entry {
            hash,
            key_off: key_off as u32,
            key_end: self.keys.len() as u32,
            part,
            acc: None,
            head: 0,
            tail: 0,
            n_values: 0,
        });
        self.buckets[slot] = slot_value(hash, idx);
        if self.entries.len() * 2 >= self.buckets.len() {
            self.grow();
        }
        idx
    }

    /// The entry of a typed key: found, or added with its partition from
    /// `part_of`, which runs only when the key is new. The key is encoded
    /// at the arena tail and probed by those bytes, so a key already held
    /// costs a hash and a compare, never an owned-key insert. Returns
    /// `(entry_index, inserted)`.
    pub(crate) fn entry<K: Kv>(&mut self, key: &K, part_of: impl FnOnce() -> u32) -> (usize, bool) {
        let key_off = self.keys.len();
        key.encode(&mut self.keys);
        let hash = hash_bytes(&self.keys[key_off..]);
        match self.probe(&self.keys[key_off..], hash) {
            Ok(idx) => {
                self.keys.truncate(key_off);
                (idx, false)
            }
            Err(slot) => (self.insert(slot, hash, key_off, part_of()), true),
        }
    }

    /// [`ByteTable::entry`] for a key already encoded, whose
    /// [`hash_bytes`] is `hash`: a new key's bytes are copied into the
    /// arena.
    fn find_or_add(
        &mut self,
        key: &[u8],
        hash: u64,
        part_of: impl FnOnce() -> u32,
    ) -> (usize, bool) {
        match self.probe(key, hash) {
            Ok(idx) => (idx, false),
            Err(slot) => {
                let key_off = self.keys.len();
                self.keys.extend_from_slice(key);
                (self.insert(slot, hash, key_off, part_of()), true)
            }
        }
    }

    /// Give entry `idx` (just `inserted`, or found) one value for its
    /// combiner: a new entry's accumulator, or a fold into an old one's.
    /// Returns `true` when the value was folded away.
    pub(crate) fn fold(
        &mut self,
        idx: usize,
        inserted: bool,
        value: V,
        combiner: &dyn Combiner<V>,
    ) -> bool {
        let e = &mut self.entries[idx];
        if inserted {
            e.acc = Some(value);
            e.n_values = 1;
            return false;
        }
        let acc = e.acc.as_mut().expect("combiner entry without accumulator");
        combiner.combine(acc, value);
        true
    }

    /// Append `value`, encoded, to entry `idx`'s chain.
    pub(crate) fn push_value(&mut self, idx: usize, value: &V)
    where
        V: Kv,
    {
        let val_off = self.vals.len();
        value.encode(&mut self.vals);
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
    /// Frame buffers the realignment took from the free list.
    pub(crate) takes: Takes,
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
    scratch: &mut SpillScratch,
) -> SpillOutput {
    let mut out = SpillOutput {
        shipments: Vec::new(),
        groups: 0,
        frames: 0,
        precompress: 0,
        wire_bytes: 0,
        takes: Takes::default(),
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
        out.takes += builder.takes();
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
                lz_wire(frame, frame_bytes, &mut out.takes)
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

/// The LZ wire form of a plain wire frame when it is the smaller, else the
/// frame itself. The compressed form is written straight into a buffer
/// from the free list, behind its [`MARKER_LZ`]; whichever form loses
/// goes back to the list.
fn lz_wire(frame: Bytes, frame_bytes: usize, takes: &mut Takes) -> Bytes {
    let mut wire = Vec::from(takes.take(frame_bytes));
    wire.push(MARKER_LZ);
    compress::compress_into(&frame[1..], &mut wire);
    if wire.len() < frame.len() {
        pool::recycle(frame_bytes, frame);
        Bytes::from(wire)
    } else {
        pool::give(frame_bytes, wire.into());
        frame
    }
}

/// Blocks the rank thread lets wait for the table thread before a hand-off
/// waits too: enough to ride out a slow block, few enough that what is in
/// flight stays a small share of a spill. It also bounds how far the next
/// epoch runs ahead of a late spill (see "Spill a late").
const BLOCKS_IN_FLIGHT: usize = 4;

/// Pairs on their way to the table thread (see "Two stages"): about
/// [`BLOCK_BYTES`] of them by raw size. A value stays typed until the
/// drain folds it or encodes it into the table, so it is copied once.
struct Block<V> {
    /// Each pair's encoded key.
    keys: BytesMut,
    /// Where each pair's key ends in `keys`.
    ends: Vec<u32>,
    /// Each pair's value.
    values: Vec<V>,
    /// Raw encoded size of the pairs held.
    raw: usize,
}

impl<V> Block<V> {
    fn new() -> Self {
        Block {
            keys: BytesMut::with_capacity(BLOCK_BYTES),
            ends: Vec::new(),
            values: Vec::new(),
            raw: 0,
        }
    }

    /// Empty a drained block for refilling (the drain took its values).
    fn clear(&mut self) {
        self.keys.clear();
        self.ends.clear();
        self.values.clear();
        self.raw = 0;
    }
}

/// A realigned epoch: its frames, and what the drain counted of it.
struct Realigned {
    out: SpillOutput,
    /// Pairs the combiner folded away this epoch.
    pairs_combined: u64,
    /// The table's arena bytes and entries as it spilled.
    table_bytes: u64,
    table_entries: u64,
    /// Traced with a combiner: the drain's time folding this epoch's pairs
    /// (one clock pair per pair at `threads = 1`, per block at 2 or more).
    combine_ns: u64,
    /// Frame buffers the drain has taken from the free list so far.
    takes: Takes,
}

/// The table side of the sender: the `ByteTable`, what folds pairs into
/// it, and what realigns it, with the scratch each reuses.
struct Drain<K, V> {
    table: ByteTable<V>,
    combiner: Option<Arc<dyn Combiner<V>>>,
    partitioner: Arc<dyn Partitioner<K>>,
    n_reducers: usize,
    frame_bytes: usize,
    compress: bool,
    /// Traced with a combiner: clock the folds.
    clocked: bool,
    /// The hash of each key of the block being drained.
    hashes: Vec<u64>,
    scratch: SpillScratch,
    /// Frame buffers taken from the free list, over every epoch.
    takes: Takes,
    /// This epoch's pairs folded away, and its clocked drain time.
    pairs_combined: u64,
    combine_ns: u64,
}

impl<K: Key, V: Value> Drain<K, V> {
    /// Fold one pair into the table (`threads = 1`).
    fn push(&mut self, key: &K, value: V) {
        let (partitioner, n_reducers) = (&self.partitioner, self.n_reducers);
        let part_of = || partitioner.partition(key, n_reducers) as u32;
        let (idx, inserted) = self.table.entry(key, part_of);
        match &self.combiner {
            Some(c) => {
                let t0 = self.clocked.then(Instant::now);
                if self.table.fold(idx, inserted, value, c.as_ref()) {
                    self.pairs_combined += 1;
                }
                if let Some(t0) = t0 {
                    self.combine_ns += t0.elapsed().as_nanos() as u64;
                }
            }
            None => self.table.push_value(idx, &value),
        }
    }

    /// Fold every pair of `block` into the table, in order, taking its
    /// values (`threads >= 2`).
    fn drain(&mut self, block: &mut Block<V>) {
        let t0 = self.clocked.then(Instant::now);
        let Drain {
            table,
            combiner,
            partitioner,
            n_reducers,
            hashes,
            pairs_combined,
            ..
        } = self;
        let starts = std::iter::once(0).chain(block.ends.iter().copied());
        let keys = (starts.zip(&block.ends))
            .map(|(start, &end)| &block.keys[start as usize..end as usize]);
        // Hash every key first, then probe: with no hashing between one
        // probe and the next, their bucket loads overlap.
        hashes.clear();
        hashes.extend(keys.clone().map(hash_bytes));
        let keys = keys.zip(hashes.iter().copied());
        // A key is decoded only to ask the partitioner, once, when it is new.
        let part_of = |mut key: &[u8]| {
            let key = K::decode(&mut key).expect("a block's key decodes as encoded");
            partitioner.partition(&key, *n_reducers) as u32
        };
        let values = block.values.drain(..);
        match combiner {
            Some(c) => {
                for ((key, hash), value) in keys.zip(values) {
                    let (idx, inserted) = table.find_or_add(key, hash, || part_of(key));
                    if table.fold(idx, inserted, value, c.as_ref()) {
                        *pairs_combined += 1;
                    }
                }
            }
            None => {
                for ((key, hash), value) in keys.zip(values) {
                    let (idx, _) = table.find_or_add(key, hash, || part_of(key));
                    table.push_value(idx, &value);
                }
            }
        }
        if let Some(t0) = t0 {
            self.combine_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Realign the table into the epoch's frames and clear it.
    fn realign(&mut self) -> Realigned {
        let out = realign_table::<K, V>(
            &self.table,
            self.n_reducers,
            self.frame_bytes,
            self.compress,
            &mut self.scratch,
        );
        self.takes += out.takes;
        let realigned = Realigned {
            out,
            pairs_combined: std::mem::take(&mut self.pairs_combined),
            // Captured before the clear: the table is at its fullest here.
            table_bytes: self.table.arena_bytes() as u64,
            table_entries: self.table.len() as u64,
            combine_ns: std::mem::take(&mut self.combine_ns),
            takes: self.takes,
        };
        self.table.clear();
        realigned
    }
}

/// What the rank thread hands the table thread.
enum ToTable<V> {
    Block(Block<V>),
    /// Realign and clear the table.
    Spill,
}

/// The table thread: drain each block, in arrival order, and realign the
/// table at each spill. It ends when the rank thread hangs up, and a panic
/// (a user combiner's or partitioner's) ends it too, closing its channels
/// for the rank thread to notice.
fn run_table<K: Key, V: Value>(
    mut drain: Drain<K, V>,
    blocks: Receiver<ToTable<V>>,
    realigned: Sender<Realigned>,
    empties: Sender<Block<V>>,
) {
    for msg in blocks {
        match msg {
            ToTable::Block(mut block) => {
                drain.drain(&mut block);
                block.clear();
                // The rank thread may be gone already; then so are we.
                let _ = empties.send(block);
            }
            ToTable::Spill => {
                if realigned.send(drain.realign()).is_err() {
                    return;
                }
            }
        }
    }
}

/// A spilled epoch as the rank thread saw it, until its frames ship.
struct Epoch {
    /// Its pool charge: its raw bytes, released once its frames ship.
    charge: PoolCharge,
    /// Its spill's number, from 1.
    spill: u64,
    pairs_in: u64,
    raw_bytes: u64,
    /// Traced: when its buffering began, when its spill began, and when
    /// the rank thread was done spilling it.
    times: Option<[u64; 3]>,
}

/// The rank thread's side of a table thread (`threads >= 2`): its ends of
/// the channels and the thread itself.
struct TableThread<V> {
    /// The block the pairs are encoded into.
    block: Block<V>,
    /// Full blocks and spills, in order. `None` once hung up.
    to_table: Option<SyncSender<ToTable<V>>>,
    /// Drained blocks coming back for reuse.
    empties: Receiver<Block<V>>,
    realigned: Receiver<Realigned>,
    thread: Option<JoinHandle<()>>,
    /// Traced: the rank thread's total wait on the table thread.
    waited_ns: Option<u64>,
}

impl<V: Value> TableThread<V> {
    fn start<K: Key>(drain: Drain<K, V>, traced: bool) -> Self {
        let (to_table, blocks) = mpsc::sync_channel(BLOCKS_IN_FLIGHT);
        let (empty_tx, empties) = mpsc::channel();
        let (realigned_tx, realigned) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("mpid-table".into())
            .spawn(move || run_table(drain, blocks, realigned_tx, empty_tx))
            .expect("spawn the sender's table thread");
        TableThread {
            block: Block::new(),
            to_table: Some(to_table),
            empties,
            realigned,
            thread: Some(thread),
            waited_ns: traced.then_some(0),
        }
    }

    /// Append one pair of `raw` bytes to the block, and hand the block off
    /// if that filled it. Returns whether it did.
    fn push<K: Kv>(&mut self, key: &K, value: V, raw: usize) -> bool {
        let block = &mut self.block;
        key.encode(&mut block.keys);
        block.ends.push(block.keys.len() as u32);
        block.values.push(value);
        block.raw += raw;
        let full = block.raw >= BLOCK_BYTES;
        if full {
            self.hand_off();
        }
        full
    }

    /// Send the block to the table thread and go on with a drained one.
    #[inline(never)] // once per block, off the per-pair path
    fn hand_off(&mut self) {
        let next = self.empties.try_recv().unwrap_or_else(|_| Block::new());
        let full = std::mem::replace(&mut self.block, next);
        self.send(ToTable::Block(full));
    }

    /// Hand off what the block holds, then ask for the table to be
    /// realigned after it.
    fn spill(&mut self) {
        if !self.block.ends.is_empty() {
            self.hand_off();
        }
        self.send(ToTable::Spill);
    }

    fn send(&mut self, msg: ToTable<V>) {
        let to_table = self.to_table.as_ref().expect("open until dropped");
        let sent = match to_table.try_send(msg) {
            Err(TrySendError::Full(msg)) => {
                let t0 = self.waited_ns.is_some().then(Instant::now);
                let sent = to_table.send(msg).is_ok();
                self.waited(t0);
                sent
            }
            sent => sent.is_ok(),
        };
        if !sent {
            self.failed();
        }
    }

    /// The late epoch's frames if they are back, or, with `wait`, once
    /// they are.
    fn collect(&mut self, wait: bool) -> Option<Realigned> {
        match self.realigned.try_recv() {
            Ok(realigned) => Some(realigned),
            Err(TryRecvError::Empty) if !wait => None,
            Err(TryRecvError::Empty) => {
                let t0 = self.waited_ns.is_some().then(Instant::now);
                let realigned = self.realigned.recv();
                self.waited(t0);
                Some(realigned.unwrap_or_else(|_| self.failed()))
            }
            Err(TryRecvError::Disconnected) => self.failed(),
        }
    }

    fn waited(&mut self, t0: Option<Instant>) {
        if let (Some(ns), Some(t0)) = (&mut self.waited_ns, t0) {
            *ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// The table thread hung up, which it does only by panicking: resume
    /// its panic on the rank's thread.
    fn failed(&mut self) -> ! {
        self.to_table = None;
        let panic = self.thread.take().and_then(|thread| thread.join().err());
        std::panic::resume_unwind(panic.unwrap_or_else(|| Box::new("the table thread hung up")))
    }
}

impl<V> Drop for TableThread<V> {
    fn drop(&mut self) {
        // Hang up, and wait for the table thread to see it.
        self.to_table = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Where a sender's pairs are folded (see "Two stages").
enum Stage<K, V> {
    /// `threads = 1`: pair by pair, on the rank's own thread.
    Inline(Drain<K, V>),
    /// `threads >= 2`: on a table thread.
    Thread(TableThread<V>),
}

impl<K: Key, V: Value> Stage<K, V> {
    fn new(
        cfg: &MpidConfig,
        combiner: &Option<Arc<dyn Combiner<V>>>,
        partitioner: &Arc<dyn Partitioner<K>>,
        traced: bool,
    ) -> Self {
        let drain = Drain {
            table: ByteTable::new(),
            combiner: combiner.clone(),
            partitioner: partitioner.clone(),
            n_reducers: cfg.n_reducers,
            frame_bytes: cfg.frame_bytes,
            compress: cfg.compress,
            clocked: traced && combiner.is_some(),
            hashes: Vec::new(),
            scratch: SpillScratch::new(),
            takes: Takes::default(),
            pairs_combined: 0,
            combine_ns: 0,
        };
        match cfg.threads {
            1 => Stage::Inline(drain),
            _ => Stage::Thread(TableThread::start(drain, traced)),
        }
    }
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
    /// Pairs accepted this epoch; reset at spill.
    epoch_pairs: u64,
    /// Raw encoded bytes accepted this epoch (see the module doc on
    /// accounting); reset at spill.
    buffered_bytes: usize,
    /// The epoch's charge against the job's block pool (no-op without
    /// one): `buffered_bytes` rounded up a block at a time
    /// (`charge_block`); the spill takes it with the epoch.
    charge: PoolCharge,
    /// Where the pairs are folded, set up at the first `send`, once
    /// `with_combiner` and `with_partitioner` have run.
    stage: Option<Stage<K, V>>,
    /// The spilled epoch whose frames are not back yet (see "Spill a late").
    late: Option<Epoch>,
    stats: SenderStats,
    finished: bool,
    /// Pipeline-stage tracing, active when the universe was launched with
    /// [`mpi_rt::Universe::run_traced`]. Stage spans (`buffer` → `combine`
    /// → `realign` → `ship`, cat `mpid.stage`) land on the rank's own trace
    /// lane, each epoch's when its frames ship; span args carry the
    /// epoch's [`SenderStats`] deltas, so the counters are recoverable from
    /// the trace alone.
    trace: Option<Arc<RankTrace>>,
    /// Traced: when the current buffering interval started (first `send`
    /// after the last spill).
    buffer_start: Option<u64>,
    /// The sender→wire policy (see [`crate::shuffle`]), built lazily at the
    /// first spill so `with_combiner` can run first.
    strategy: Option<Box<dyn ShuffleStrategy<K, V>>>,
}

impl<'a, K: Key, V: Value> MpidSender<'a, K, V> {
    pub(crate) fn new(comm: &'a Comm, cfg: MpidConfig) -> Self {
        let charge = PoolCharge::new(cfg.pool.clone());
        MpidSender {
            comm,
            cfg,
            combiner: None,
            partitioner: Arc::new(HashPartitioner),
            epoch_pairs: 0,
            buffered_bytes: 0,
            charge,
            stage: None,
            late: None,
            stats: SenderStats::default(),
            finished: false,
            trace: comm.trace().cloned(),
            buffer_start: None,
            strategy: None,
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
        assert!(self.stats.pairs_in == 0, "with_combiner after sends began");
        self.combiner = Some(Arc::new(c));
        self
    }

    /// Replace the default [`HashPartitioner`]. Must be called before the
    /// first [`MpidSender::send`] — entries memoize their partition.
    pub fn with_partitioner(mut self, p: impl Partitioner<K> + 'static) -> Self {
        assert!(
            self.stats.pairs_in == 0,
            "with_partitioner after sends began"
        );
        self.partitioner = Arc::new(p);
        self
    }

    /// `MPI_D_Send(key, value)`: buffer (and locally combine) the pair,
    /// spilling realigned frames to reducers when the buffer is full.
    pub fn send(&mut self, key: K, value: V) -> MpidResult<()> {
        assert!(!self.finished, "send after finish");
        // Every pair counts in full, whether or not the combiner folds it
        // away (see the module doc), with the pool charged ahead of it a
        // block at a time.
        let raw = key.wire_size() + value.wire_size();
        self.stats.pairs_in += 1;
        self.epoch_pairs += 1;
        if let (Some(rt), None) = (&self.trace, self.buffer_start) {
            self.buffer_start = Some(rt.now_ns());
        }
        self.buffered_bytes += raw;
        if self.buffered_bytes > self.charge.held() {
            self.charge_block();
        }
        let stage = self.stage.get_or_insert_with(|| {
            Stage::new(
                &self.cfg,
                &self.combiner,
                &self.partitioner,
                self.trace.is_some(),
            )
        });
        let handed_off = match stage {
            Stage::Inline(drain) => {
                drain.push(&key, value);
                false
            }
            Stage::Thread(table) => table.push(&key, value, raw),
        };
        if handed_off {
            self.ship_late(false)?;
        }
        if self.buffered_bytes >= self.cfg.spill_threshold_bytes {
            self.spill()?;
        }
        Ok(())
    }

    /// Charge the pool up to the epoch's raw bytes or one block past what
    /// is held, whichever is more, but no block past the spill threshold:
    /// the charge never exceeds `max(raw, spill_threshold_bytes)`, and when
    /// a full epoch spills it is exactly the epoch's raw bytes.
    #[inline(never)] // once per block, off the per-pair path
    fn charge_block(&mut self) {
        let held = self.charge.held();
        let block_ahead = (held + BLOCK_BYTES).min(self.cfg.spill_threshold_bytes);
        self.charge
            .grow(self.buffered_bytes.max(block_ahead) - held);
    }

    /// Raw bytes accepted since the last spill (diagnostics; spilling resets
    /// it).
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// Force a spill of the current buffer contents.
    pub fn spill(&mut self) -> MpidResult<()> {
        if self.epoch_pairs == 0 {
            return Ok(());
        }
        // One epoch out at most: the late one ships before this one goes.
        self.ship_late(true)?;
        let times = self.trace.as_ref().map(|rt| {
            let now = rt.now_ns();
            [self.buffer_start.take().unwrap_or(now), now, now]
        });
        self.stats.spills += 1;
        let mut epoch = Epoch {
            charge: self.charge.split_off(self.charge.held()),
            spill: self.stats.spills,
            pairs_in: std::mem::take(&mut self.epoch_pairs),
            raw_bytes: std::mem::take(&mut self.buffered_bytes) as u64,
            times,
        };
        let stage = self.stage.as_mut().expect("the epoch's pairs were sent");
        let realigned = match stage {
            Stage::Inline(drain) => Some(drain.realign()),
            Stage::Thread(table) => {
                table.spill();
                None
            }
        };
        if let (Some(rt), Some(times)) = (&self.trace, &mut epoch.times) {
            times[2] = rt.now_ns();
        }
        let Some(realigned) = realigned else {
            self.late = Some(epoch);
            return Ok(());
        };
        self.ship(epoch, realigned)
    }

    /// Ship the late epoch if its frames are back, or, with `wait`, once
    /// they are.
    fn ship_late(&mut self, wait: bool) -> MpidResult<()> {
        let (Some(Stage::Thread(table)), Some(epoch)) = (&mut self.stage, self.late.take()) else {
            return Ok(());
        };
        let Some(realigned) = table.collect(wait) else {
            self.late = Some(epoch);
            return Ok(());
        };
        self.ship(epoch, realigned)
    }

    /// Ship an epoch's frames through the shuffle strategy, releasing the
    /// epoch's pool charge as they go, and count them.
    fn ship(&mut self, epoch: Epoch, realigned: Realigned) -> MpidResult<()> {
        let Realigned { out, .. } = realigned;
        let (frames, wire_bytes) = (out.frames, out.wire_bytes);
        self.stats.pairs_combined += realigned.pairs_combined;
        self.stats.groups_out += out.groups;
        self.stats.frames += frames;
        self.stats.bytes_precompress += out.precompress;
        self.stats.bytes_sent += wire_bytes;
        // The epoch's buffering interval, with a nested "combine" span for
        // the drain's time on its blocks, and the rank thread's part of its
        // spill.
        if let (Some(rt), Some([b0, s0, s1])) = (&self.trace, epoch.times) {
            rt.complete(
                obs::names::SPAN_BUFFER,
                obs::names::CAT_MPID_STAGE,
                b0,
                s0,
                vec![
                    ("pairs_in", ArgValue::U64(epoch.pairs_in)),
                    ("pairs_combined", ArgValue::U64(realigned.pairs_combined)),
                    ("buffered_bytes", ArgValue::U64(epoch.raw_bytes)),
                ],
            );
            if realigned.combine_ns > 0 {
                rt.complete(
                    obs::names::SPAN_COMBINE,
                    obs::names::CAT_MPID_STAGE,
                    s0 - realigned.combine_ns.min(s0 - b0),
                    s0,
                    Vec::new(),
                );
            }
            rt.complete(
                obs::names::SPAN_REALIGN,
                obs::names::CAT_MPID_STAGE,
                s0,
                s1,
                vec![
                    ("groups", ArgValue::U64(out.groups)),
                    ("frames", ArgValue::U64(frames)),
                    ("frame_bytes", ArgValue::U64(out.precompress)),
                ],
            );
        }
        let ship_start = self.trace.as_ref().map(|rt| rt.now_ns());
        // Hand the spill to the shuffle strategy: baseline ships straight to
        // the reducers; in-node members relay to their leader.
        let mut strategy = self.take_strategy();
        drop(epoch.charge);
        let ctx = ShipCtx {
            comm: self.comm,
            cfg: &self.cfg,
        };
        strategy.ship(&ctx, out)?;
        self.strategy = Some(strategy);
        if let (Some(rt), Some(t0)) = (&self.trace, ship_start) {
            rt.complete_since(
                obs::names::SPAN_SHIP,
                obs::names::CAT_MPID_STAGE,
                t0,
                vec![
                    ("spill", ArgValue::U64(epoch.spill)),
                    ("frames", ArgValue::U64(frames)),
                    ("bytes_sent", ArgValue::U64(wire_bytes)),
                ],
            );
            // Memory-accounting samples, one set per spill: the profile's
            // high-water marks come from the max over these.
            for (name, value) in [
                (obs::names::CTR_MEM_TABLE_BYTES, realigned.table_bytes),
                (obs::names::CTR_MEM_TABLE_ENTRIES, realigned.table_entries),
                (obs::names::CTR_MEM_SPILLS, epoch.spill),
                (obs::names::CTR_MEM_FRAME_POOL_HITS, realigned.takes.reused),
                (obs::names::CTR_MEM_FRAME_POOL_MISSES, realigned.takes.fresh),
            ] {
                rt.counter(name, obs::names::CAT_MPID_MEM, value as f64);
            }
            if let Some(pool) = &self.cfg.pool {
                for (name, value) in [
                    (obs::names::CTR_MEM_POOL_LIVE, pool.live()),
                    (obs::names::CTR_MEM_POOL_HIGH_WATER, pool.high_water()),
                    (obs::names::CTR_MEM_POOL_BUDGET, pool.budget()),
                ] {
                    rt.counter(name, obs::names::CAT_MPID_MEM, value as f64);
                }
            }
        }
        Ok(())
    }

    /// Flush everything and deliver an end-of-stream marker to every
    /// reducer. Returns the sender statistics.
    pub fn finish(mut self) -> MpidResult<SenderStats> {
        let t0 = self.trace.as_ref().map(|rt| rt.now_ns());
        self.spill()?;
        self.ship_late(true)?;
        let spill_wait_ns = match &self.stage {
            Some(Stage::Thread(table)) => table.waited_ns.unwrap_or(0),
            _ => 0,
        };
        // Every pair is out: the table thread, if any, ends here.
        self.stage = None;
        // Flush the shuffle strategy before end-of-stream: in-node leaders
        // drain their members' relay streams and ship the merged frames
        // here.
        let report = self.take_strategy().flush(&ShipCtx {
            comm: self.comm,
            cfg: &self.cfg,
        })?;
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
        // `spill_wait_ns` is the rank thread's wait on a table thread: for
        // room in its channel, for a late epoch's frames, and at finish.
        if let (Some(rt), Some(t0)) = (&self.trace, t0) {
            rt.complete_since(
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
                    ("spill_wait_ns", ArgValue::U64(spill_wait_ns)),
                ],
            );
            // Shuffle-strategy counters, only off the baseline path so the
            // baseline trace stays bit-identical to the pre-strategy sender.
            if self.cfg.shuffle != ShuffleKind::Baseline {
                rt.counter(
                    obs::names::CTR_SHUFFLE_STRATEGY,
                    obs::names::CAT_MPID_SHUFFLE,
                    report.kind_tag as f64,
                );
                rt.counter(
                    obs::names::CTR_SHUFFLE_WIRE_SAVED,
                    obs::names::CAT_MPID_SHUFFLE,
                    report.wire_in.saturating_sub(report.wire_out) as f64,
                );
                if report.host_groups_in > 0 {
                    rt.counter(
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
        if self.finished || std::thread::panicking() {
            return;
        }
        let unsent = self.epoch_pairs + self.late.as_ref().map_or(0, |e| e.pairs_in);
        if unsent > 0 {
            eprintln!("warning: MpidSender dropped with {unsent} pairs unsent and no finish()");
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
            table.entry(&k, || 0);
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

    /// The charge a table thread's late epoch still holds (0 at one thread).
    fn late_charge<K: Key, V: Value>(sender: &MpidSender<'_, K, V>) -> usize {
        sender.late.as_ref().map_or(0, |e| e.charge.held())
    }

    /// The pool sees the epoch's raw bytes a block at a time, never more
    /// than `max(raw, spill_threshold_bytes)`, exactly the raw bytes when
    /// a full epoch spills, and nothing after any spill. At two threads the
    /// spilled epoch takes its charge along: it holds exactly its raw bytes
    /// until its frames ship, and is released as they ship, so the pool
    /// holds at most the threshold plus `BLOCKS_IN_FLIGHT + 2` blocks (see
    /// "Spill a late"), and each epoch's own charge keeps the rule above.
    #[test]
    fn the_pool_is_charged_a_block_at_a_time_up_to_the_spill_threshold() {
        // Not a whole number of blocks, nor of 20-byte pairs.
        let threshold = 5 * BLOCK_BYTES / 2 + 1010;
        for threads in [1, 2] {
            pool_charge_case(threshold, threads);
        }
    }

    /// One sender at `threads` checked against the charge rule above.
    fn pool_charge_case(threshold: usize, threads: usize) {
        use crate::pool::BlockPool;
        use crate::{MpidWorld, Role};
        use mpi_rt::Universe;
        let pool = BlockPool::new(usize::MAX);
        Universe::run(3, |comm| {
            let mut cfg = MpidConfig {
                spill_threshold_bytes: threshold,
                threads,
                ..MpidConfig::with_workers(1, 1)
            };
            let world = MpidWorld::init(comm, cfg.clone()).unwrap();
            match world.role() {
                Role::Mapper(_) => {
                    // Only the mapper charges this pool.
                    cfg.pool = Some(pool.clone());
                    let mut sender = MpidSender::<u64, Vec<u8>>::new(comm, cfg);
                    let (mut raw, mut held, mut peak, mut spills) = (0, 0, 0, 0);
                    let mut charges = 0;
                    // Two threads: the late epoch's raw bytes, and the
                    // frames counted when it spilled.
                    let (mut late_raw, mut frames_at_spill) = (0, 0);
                    // 20-byte pairs after the big one, in an epoch's first
                    // block: a pair's overshoot a block.
                    let bound = threshold + (BLOCKS_IN_FLIGHT + 2) * (BLOCK_BYTES + 20);
                    for i in 0..30_000u64 {
                        // 8 + 4 + 8 bytes a pair, and one pair past a block.
                        let value = vec![0u8; if i == 100 { 100_000 } else { 8 }];
                        raw += 8 + value.wire_size();
                        sender.send(i, value).unwrap();
                        let late = late_charge(&sender);
                        if threads > 1 {
                            assert!(pool.live() <= bound, "{} > {bound}", pool.live());
                            let shipped = sender.stats.frames > frames_at_spill;
                            if sender.buffered_bytes() == 0 {
                                (late_raw, frames_at_spill) = (raw, sender.stats.frames);
                                assert_eq!(late, raw, "the spilled epoch holds its raw bytes");
                            } else {
                                assert_eq!(late, if shipped { 0 } else { late_raw }, "{shipped}");
                            }
                        }
                        // This epoch's own charge.
                        let now = pool.live() - late;
                        if sender.buffered_bytes() == 0 {
                            assert!(raw >= threshold);
                            assert_eq!(now, 0, "a spill releases the charge");
                            (peak, spills, raw, held) = (peak.max(raw), spills + 1, 0, 0);
                            continue;
                        }
                        assert_eq!(raw, sender.buffered_bytes());
                        assert!(raw <= now && now <= raw.max(threshold), "{raw} {now}");
                        // A block at a time, clamped at the threshold,
                        // unless one pair outgrows the block.
                        let want = match raw > held {
                            true => raw.max((held + BLOCK_BYTES).min(threshold)),
                            false => held,
                        };
                        assert_eq!(now, want, "{held} -> {now} at {raw} raw");
                        (held, charges) = (now, charges + usize::from(raw > held));
                    }
                    assert_eq!(spills, 4, "threads = {threads}");
                    // Two blocks, the clamp and the overshoot an epoch (and
                    // one more for the big pair), not a charge a pair.
                    let per_epoch = threshold / BLOCK_BYTES + 2;
                    assert!(charges <= (spills + 1) * per_epoch, "{charges}");
                    if threads == 1 {
                        // A full epoch holds exactly its raw bytes as it spills.
                        assert_eq!(pool.high_water(), peak);
                    } else {
                        assert!(peak <= pool.high_water() && pool.high_water() <= bound);
                    }
                    sender.finish().unwrap();
                    assert_eq!(pool.live(), 0);
                }
                Role::Reducer(_) => {
                    let got = world.receiver::<u64, Vec<u8>>().recv_all().unwrap();
                    assert_eq!(got.len(), 30_000);
                }
                Role::Master => {}
            }
            world.finalize().unwrap();
        });
    }

    /// `spill()` and then at once `finish()`: at two threads the spilled
    /// epoch is still out while no pair is unsent, and `finish` must ship
    /// it, after the epoch before it and before end-of-stream.
    #[test]
    fn a_spill_then_finish_ships_every_epoch_in_order_before_end_of_stream() {
        use crate::realign::decode_frames;
        use crate::{MpidWorld, Role};
        use mpi_rt::Universe;
        for threads in [1, 2] {
            Universe::run(3, |comm| {
                let cfg = MpidConfig {
                    threads,
                    ..MpidConfig::with_workers(1, 1)
                };
                let world = MpidWorld::init(comm, cfg).unwrap();
                match world.role() {
                    Role::Mapper(_) => {
                        let mut sender = world.sender::<String, u64>();
                        for epoch in ["a", "b"] {
                            for i in 0..3 {
                                sender.send(format!("{epoch}{i}"), i).unwrap();
                            }
                            sender.spill().unwrap();
                        }
                        assert_eq!(sender.epoch_pairs, 0);
                        let out = sender.late.as_ref().map(|e| e.spill);
                        assert_eq!(out, (threads > 1).then_some(2), "the epoch still out");
                        let stats = sender.finish().unwrap();
                        assert_eq!((stats.spills, stats.frames), (2, 2));
                    }
                    Role::Reducer(_) => {
                        let mut got = Vec::new();
                        loop {
                            let (wire, _) = comm.recv::<u8>(None, Some(tags::DATA)).unwrap();
                            let wire = bytes::Bytes::from(wire);
                            if wire.is_empty() {
                                break;
                            }
                            let groups = decode_frames::<String, u64>(&[wire.slice(1..)]).unwrap();
                            got.extend(groups.into_iter().map(|(k, _)| k));
                        }
                        assert_eq!(
                            got,
                            ["a0", "a1", "a2", "b0", "b1", "b2"],
                            "threads = {threads}"
                        );
                    }
                    Role::Master => {}
                }
                world.finalize().unwrap();
            });
        }
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
