//! Bounded-memory grouping: an external merge table for the reducer.
//!
//! The in-memory receiver ([`crate::receiver::MpidReceiver`]) holds the
//! whole key space; for reduce inputs larger than memory Hadoop spills
//! sorted runs to disk and k-way merges them — the mechanism behind the
//! paper's concern for "saving memory space" on the reducer. This module is
//! that mechanism: an [`ExternalTable`] accumulates `(key, values)` groups,
//! spills key-sorted runs to a temporary directory whenever the in-memory
//! estimate crosses a budget, and finally streams globally key-ordered
//! merged groups out of a k-way merge ([`MergeIter`]) over one ordered list
//! of sources — here the runs, then the resident groups. A producer that
//! already holds sorted data writes its own runs
//! ([`ExternalTable::begin_sorted_run`]) and lists the sources itself
//! ([`ExternalTable::into_merge_of`]), in the order an equal key's values
//! are to come out.
//!
//! ## Runs
//!
//! A run file is a sequence of `u32 len , frame` records, each frame an
//! ordinary multi-group [`crate::realign`] frame body of about
//! [`RUN_FRAME_BYTES`], its keys ascending and each key once in the run.
//! The writer picks the layout for the whole run: single-valued when every
//! group has one value and a non-empty key, as a window of distinct keys
//! does, the counted layout otherwise.
//! A run is written as the sender writes its frames, key and value bytes
//! copied in ([`FrameBuilder::begin_group_raw`]), one write per record
//! ([`FrameBuilder::new_record`]); it is read back a frame at a time
//! ([`RunReader`]), each frame indexed with [`parse_group_index_raw`] and
//! nothing decoded until the merge delivers its group. A length word is
//! checked against the bytes left in the file before it sizes a buffer, so
//! a run cut short or overwritten is a decode error, never a huge
//! allocation or a panic.
//!
//! ## Merge
//!
//! [`MergeIter`] merges its sources by raw key, as the receiver's in-memory
//! merge does: each source's head carries its key's
//! [`encoded_prefix`](Key::encoded_prefix), and a loser tree orders the
//! heads by prefix, then — only on a tie of prefixes that are not
//! [whole keys](Key::prefix_is_exact) — by the encoded bytes
//! ([`Key::encoded_cmp`]), then by source position, so an equal key's
//! values are collected in source order. A step of the merge costs one
//! comparison per level of the tree; each delivered key is decoded once,
//! from its first source, and its values once, into an exact-capacity
//! list.

use crate::kv::{CodecError, Key, Value};
use crate::realign::{fits_single_valued, parse_group_index_raw, FrameBuilder, RawGroup};
use bytes::{Bytes, BytesMut};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::path::PathBuf;

/// Target size of a run's frames: the unit a run is written and read back
/// in, so a merge holds about this much per run it reads.
pub const RUN_FRAME_BYTES: usize = 64 << 10;

/// Errors from spill-file I/O and decoding.
#[derive(Debug)]
pub enum ExtMergeError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A spilled run failed to decode: on-disk corruption, or bad content
    /// a producer copied into the run verbatim.
    Codec(CodecError),
}

impl std::fmt::Display for ExtMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtMergeError::Io(e) => write!(f, "spill i/o error: {e}"),
            ExtMergeError::Codec(e) => write!(f, "spill decode error: {e}"),
        }
    }
}
impl std::error::Error for ExtMergeError {}
impl From<std::io::Error> for ExtMergeError {
    fn from(e: std::io::Error) -> Self {
        ExtMergeError::Io(e)
    }
}
impl From<CodecError> for ExtMergeError {
    fn from(e: CodecError) -> Self {
        ExtMergeError::Codec(e)
    }
}

/// A grouping table that spills key-sorted runs to disk beyond a memory
/// budget.
pub struct ExternalTable<K: Key, V: Value> {
    resident: BTreeMap<K, Vec<V>>,
    resident_bytes: usize,
    budget_bytes: usize,
    /// Removed on drop; empty once a merge has taken it over.
    spill_dir: PathBuf,
    runs: Vec<PathBuf>,
    spilled_bytes: u64,
}

impl<K: Key, V: Value> ExternalTable<K, V> {
    /// Table with the given in-memory byte budget. Runs are written under a
    /// unique subdirectory of `dir` (pass `std::env::temp_dir()` normally);
    /// the directory is removed on drop, or by the merge that takes it over.
    pub fn new(budget_bytes: usize, dir: PathBuf) -> std::io::Result<Self> {
        assert!(budget_bytes > 0);
        let unique = format!(
            "mpid-spill-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock before epoch")
                .as_nanos()
        );
        let spill_dir = dir.join(unique);
        std::fs::create_dir_all(&spill_dir)?;
        Ok(ExternalTable {
            resident: BTreeMap::new(),
            resident_bytes: 0,
            budget_bytes,
            spill_dir,
            runs: Vec::new(),
            spilled_bytes: 0,
        })
    }

    /// Number of runs spilled so far.
    pub fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total bytes written to spill files so far (record headers included) —
    /// the disk side of the reducer's memory accounting.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Add values for a key, spilling if the budget is exceeded.
    pub fn insert(&mut self, key: K, values: Vec<V>) -> Result<(), ExtMergeError> {
        self.resident_bytes +=
            key.wire_size() + values.iter().map(|v| v.wire_size()).sum::<usize>();
        self.resident.entry(key).or_default().extend(values);
        if self.resident_bytes > self.budget_bytes {
            self.spill()?;
        }
        Ok(())
    }

    /// Force the resident table out as a sorted run.
    pub fn spill(&mut self) -> std::io::Result<()> {
        if self.resident.is_empty() {
            return Ok(());
        }
        let resident = std::mem::take(&mut self.resident);
        let single =
            (resident.iter()).all(|(k, vs)| fits_single_valued(k.wire_size(), vs.len() as u32));
        let mut run = self.begin_sorted_run(single)?;
        // BTreeMap iterates in ascending key order — runs are sorted.
        for (k, vs) in &resident {
            run.frames.push_group(k, vs);
            run.write_sealed()?;
        }
        run.finish()?;
        self.resident_bytes = 0;
        Ok(())
    }

    /// Start a run that the caller fills with groups in **ascending key
    /// order** — the path a producer that already holds sorted data (the
    /// receiver's frame-run merge) uses to spill without the resident
    /// `BTreeMap` resort. With `single` set, its frames take the
    /// single-valued layout ([`FrameBuilder::single_valued`]): every group
    /// must then have one value and a key of at least one byte. The run is
    /// numbered, in spill order, when [`RunWriter::finish`] is called; an
    /// unfinished writer's file is abandoned and swept with the spill
    /// directory.
    pub fn begin_sorted_run(&mut self, single: bool) -> std::io::Result<RunWriter<'_, K, V>> {
        let path = self
            .spill_dir
            .join(format!("run-{:05}.spill", self.runs.len()));
        let w = BufWriter::new(File::create(&path)?);
        Ok(RunWriter {
            table: self,
            w,
            path,
            frames: FrameBuilder::new_record(RUN_FRAME_BYTES).single_valued(single),
        })
    }

    /// Finish ingestion: the merge of every run, in spill order, and the
    /// resident groups last. This opens the run files and reads none of
    /// them: a run that cannot be read or decoded fails the
    /// [`MergeIter::next_group`] that needs its next group, the first call
    /// included.
    pub fn into_merge(mut self) -> Result<MergeIter<K, V>, ExtMergeError> {
        let mut sources: Vec<Source<K, V, ExtMergeError>> = Vec::new();
        for i in 0..self.runs.len() {
            sources.push(Box::new(self.open_run(i)?));
        }
        let resident = std::mem::take(&mut self.resident);
        sources.push(decoded_source(resident.into_iter().map(Ok)));
        Ok(self.into_merge_of(sources))
    }

    /// Run `i`, in spill order, opened to be read back as a merge source.
    pub fn open_run(&self, i: usize) -> std::io::Result<RunReader<K, V>> {
        Ok(RunReader {
            r: BufReader::new(File::open(&self.runs[i])?),
            left: None,
            frame: Vec::new(),
            groups: Vec::new(),
            at: 0,
            on_err: std::convert::identity,
            _groups: PhantomData,
        })
    }

    /// The merge of `sources`, listed in the order an equal key's values
    /// are to be collected in, whatever kind each is — a run from
    /// [`open_run`](Self::open_run), groups a producer still holds in
    /// memory. Each source reports its own errors; the merge passes the
    /// first one on. The merge takes over the spill directory: the run
    /// files stay until it is dropped.
    pub fn into_merge_of<E>(mut self, sources: Vec<Source<K, V, E>>) -> MergeIter<K, V, E> {
        let n_sources = sources.len();
        MergeIter {
            sources,
            prefixes: vec![0; n_sources],
            live: vec![false; n_sources],
            tree: vec![0; n_sources],
            taken: (0..n_sources).collect(),
            _cleanup: DirCleanup(std::mem::take(&mut self.spill_dir)),
        }
    }
}

impl<K: Key, V: Value> Drop for ExternalTable<K, V> {
    fn drop(&mut self) {
        if !self.spill_dir.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&self.spill_dir);
        }
    }
}

struct DirCleanup(PathBuf);
impl Drop for DirCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One input of a [`MergeIter`]: groups in ascending key order, each key
/// at most once, the head group's key held encoded for the merge to
/// compare.
pub trait RawSource<K, V, E>: Send {
    /// Step to the next group — on the first call, to the first one.
    /// `Ok(false)` once there is none.
    fn advance(&mut self) -> Result<bool, E>;
    /// The head group's encoded key.
    fn key_bytes(&self) -> &[u8];
    /// How many values the head group holds.
    fn n_values(&self) -> usize;
    /// The head group's key, decoded.
    fn take_key(&mut self) -> Result<K, E>;
    /// Append the head group's values, decoded, to `out`.
    fn take_values(&mut self, out: &mut Vec<V>) -> Result<(), E>;
}

/// One source of a [`MergeIter`].
pub type Source<K, V, E> = Box<dyn RawSource<K, V, E>>;

/// A merge source over groups already decoded (say, a table's resident
/// groups), in ascending key order, each key once, or the error that ends
/// them. Each key is encoded once, for the merge to compare.
pub fn decoded_source<K, V, E, I>(groups: I) -> Source<K, V, E>
where
    K: Key,
    V: Value,
    E: 'static,
    I: Iterator<Item = Result<(K, Vec<V>), E>> + Send + 'static,
{
    Box::new(Decoded {
        groups,
        key: None,
        values: Vec::new(),
        key_bytes: BytesMut::new(),
    })
}

struct Decoded<K, V, I> {
    groups: I,
    key: Option<K>,
    values: Vec<V>,
    key_bytes: BytesMut,
}

impl<K, V, E, I> RawSource<K, V, E> for Decoded<K, V, I>
where
    K: Key,
    V: Value,
    I: Iterator<Item = Result<(K, Vec<V>), E>> + Send,
{
    fn advance(&mut self) -> Result<bool, E> {
        let Some((key, values)) = self.groups.next().transpose()? else {
            return Ok(false);
        };
        self.key_bytes.clear();
        key.encode(&mut self.key_bytes);
        (self.key, self.values) = (Some(key), values);
        Ok(true)
    }

    fn key_bytes(&self) -> &[u8] {
        &self.key_bytes
    }

    fn n_values(&self) -> usize {
        self.values.len()
    }

    fn take_key(&mut self) -> Result<K, E> {
        Ok(self.key.take().expect("take_key with no head"))
    }

    fn take_values(&mut self, out: &mut Vec<V>) -> Result<(), E> {
        out.append(&mut self.values);
        Ok(())
    }
}

/// Writer for one pre-sorted run (see [`ExternalTable::begin_sorted_run`]):
/// groups go into [`RUN_FRAME_BYTES`] frames, each written out, length
/// first, as soon as it is sealed. Keys and values are appended as raw
/// encoded bytes, so spilling already-encoded frame data performs no
/// decode/re-encode round-trip.
pub struct RunWriter<'t, K: Key, V: Value> {
    table: &'t mut ExternalTable<K, V>,
    w: BufWriter<File>,
    path: PathBuf,
    frames: FrameBuilder,
}

impl<K: Key, V: Value> RunWriter<'_, K, V> {
    /// Open a group from its already-encoded key, declaring its value count
    /// (as [`FrameBuilder::begin_group_raw`]). Keys must arrive in strictly
    /// ascending order across calls (each key exactly once per run).
    pub fn begin_group_raw(&mut self, key_bytes: &[u8], n_values: u32) {
        self.frames.begin_group_raw(key_bytes, n_values);
    }

    /// Append already-encoded value bytes to the open group.
    pub fn push_raw(&mut self, value_bytes: &[u8]) {
        self.frames.push_raw(value_bytes);
    }

    /// Close the open group, writing its frame out if that sealed it.
    pub fn end_group(&mut self) -> std::io::Result<()> {
        self.frames.end_group();
        self.write_sealed()
    }

    fn write_sealed(&mut self) -> std::io::Result<()> {
        let spilled = &mut self.table.spilled_bytes;
        write_records(&mut self.w, spilled, self.frames.take_sealed())
    }

    /// Write the last frame, flush, and register the run with the owning
    /// table.
    pub fn finish(self) -> std::io::Result<()> {
        let RunWriter {
            table,
            mut w,
            path,
            frames,
        } = self;
        write_records(&mut w, &mut table.spilled_bytes, frames.finish())?;
        w.flush()?;
        table.runs.push(path);
        Ok(())
    }
}

/// Write run records, each with one call, counting their bytes as spilled.
fn write_records(
    w: &mut BufWriter<File>,
    spilled: &mut u64,
    records: impl IntoIterator<Item = Bytes>,
) -> std::io::Result<()> {
    for record in records {
        w.write_all(&record)?;
        *spilled += record.len() as u64;
    }
    Ok(())
}

/// A spilled run read back a frame at a time, as a merge source
/// ([`ExternalTable::open_run`]); `F` turns its errors into the merge's.
pub struct RunReader<K, V, F = fn(ExtMergeError) -> ExtMergeError> {
    r: BufReader<File>,
    /// File bytes not yet read; read off the file at the first frame.
    left: Option<u64>,
    /// The frame at hand, its buffer reused across frames.
    frame: Vec<u8>,
    /// The frame's groups; the head is `groups[at]`.
    groups: Vec<RawGroup>,
    at: usize,
    on_err: F,
    _groups: PhantomData<fn() -> (K, V)>,
}

impl<K: Key, V: Value, F> RunReader<K, V, F> {
    /// The same run, its errors passed through `f`.
    pub fn map_err<E, G: Fn(ExtMergeError) -> E>(self, f: G) -> RunReader<K, V, G> {
        RunReader {
            r: self.r,
            left: self.left,
            frame: self.frame,
            groups: self.groups,
            at: self.at,
            on_err: f,
            _groups: PhantomData,
        }
    }

    /// Read the next frame into `frame` and index it: `Ok(false)` at the
    /// end of the file. The length word sizes the buffer, so it must fit
    /// in what is left of the file.
    fn next_frame(&mut self) -> Result<bool, ExtMergeError> {
        let left = match self.left {
            Some(left) => left,
            None => self.r.get_ref().metadata()?.len(),
        };
        if left == 0 {
            self.left = Some(0);
            return Ok(false);
        }
        let mut len = [0u8; 4];
        if left < 4 {
            return Err(CodecError::Truncated.into());
        }
        self.r.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as u64;
        if len > left - 4 {
            return Err(CodecError::Truncated.into());
        }
        self.frame.clear();
        self.frame.resize(len as usize, 0);
        self.r.read_exact(&mut self.frame)?;
        self.left = Some(left - 4 - len);
        self.groups = parse_group_index_raw::<K, V>(&self.frame)?;
        Ok(true)
    }

    fn head(&self) -> &RawGroup {
        &self.groups[self.at]
    }
}

impl<K, V, E, F> RawSource<K, V, E> for RunReader<K, V, F>
where
    K: Key,
    V: Value,
    F: Fn(ExtMergeError) -> E + Send,
{
    fn advance(&mut self) -> Result<bool, E> {
        self.at += 1;
        while self.at >= self.groups.len() {
            match self.next_frame() {
                Ok(true) => self.at = 0,
                Ok(false) => return Ok(false),
                Err(e) => return Err((self.on_err)(e)),
            }
        }
        Ok(true)
    }

    fn key_bytes(&self) -> &[u8] {
        self.head().key_bytes(&self.frame)
    }

    fn n_values(&self) -> usize {
        self.head().n_values as usize
    }

    fn take_key(&mut self) -> Result<K, E> {
        K::decode(&mut self.key_bytes()).map_err(|e| (self.on_err)(e.into()))
    }

    fn take_values(&mut self, out: &mut Vec<V>) -> Result<(), E> {
        let g = *self.head();
        let mut encoded = g.val_bytes(&self.frame);
        for _ in 0..g.n_values {
            out.push(V::decode(&mut encoded).map_err(|e| (self.on_err)(e.into()))?);
        }
        Ok(())
    }
}

/// Streaming k-way merge over an ordered list of sources (see
/// [`ExternalTable::into_merge_of`] and the [module docs](self)): yields
/// `(key, merged values)` in ascending key order, each key exactly once,
/// its values collected source by source in list order.
pub struct MergeIter<K: Key, V: Value, E = ExtMergeError> {
    sources: Vec<Source<K, V, E>>,
    /// Each source's head key prefix, while it has a head.
    prefixes: Vec<u64>,
    /// Whether each source has a head; one without comes after all that do.
    live: Vec<bool>,
    /// A loser tree over the sources, source `i` its leaf `k + i`: node 0
    /// holds the source whose head comes first, every internal node
    /// `1..k` the source that lost the match played there. Advancing the
    /// first source replays one leaf-to-root path, one comparison a level.
    tree: Vec<usize>,
    /// Sources whose head the last call took (at first: all of them).
    taken: Vec<usize>,
    _cleanup: DirCleanup,
}

impl<K: Key, V: Value, E> MergeIter<K, V, E> {
    /// Next merged group, or `None` at end. A source that fails to produce
    /// a group fails the call that needs it as a head — every group
    /// delivered before is whole — and the merge is fused: after an error
    /// every later call returns `Ok(None)`.
    #[allow(clippy::type_complexity)]
    pub fn next_group(&mut self) -> Result<Option<(K, Vec<V>)>, E> {
        let next = self.merge_next();
        if next.is_err() {
            self.tree.clear();
            self.taken.clear();
        }
        next
    }

    #[allow(clippy::type_complexity)]
    fn merge_next(&mut self) -> Result<Option<(K, Vec<V>)>, E> {
        // Refill the heads the last call took: now rather than then, so
        // that a failing source costs no group that came before its own.
        for t in 0..self.taken.len() {
            let i = self.taken[t];
            self.live[i] = self.sources[i].advance()?;
            if self.live[i] {
                self.prefixes[i] = K::encoded_prefix(self.sources[i].key_bytes());
            }
        }
        match self.taken.len() {
            0 => {}
            // The first source, alone: one path.
            1 => self.replay(self.taken[0]),
            _ => self.rebuild(),
        }
        self.taken.clear();
        let Some(&first) = self.tree.first().filter(|&&i| self.live[i]) else {
            return Ok(None);
        };
        // Every other head with the first's key lost a match on the path
        // of one already found, to a head no later than its own.
        self.taken.push(first);
        let mut found = 0;
        while let Some(&s) = self.taken.get(found) {
            let mut node = (self.sources.len() + s) / 2;
            while node > 0 {
                let loser = self.tree[node];
                if self.live[loser]
                    && self.key_order(first, loser).is_eq()
                    && !self.taken.contains(&loser)
                {
                    self.taken.push(loser);
                }
                node /= 2;
            }
            found += 1;
        }
        self.taken.sort_unstable();
        let n_values: usize = self.taken.iter().map(|&i| self.sources[i].n_values()).sum();
        let mut values = Vec::with_capacity(n_values);
        let key = self.sources[first].take_key()?;
        for &i in &self.taken {
            self.sources[i].take_values(&mut values)?;
        }
        Ok(Some((key, values)))
    }

    /// Key order of two sources' heads: the prefixes decide, and only a
    /// tie on a prefix that is not a whole key compares the encoded bytes.
    fn key_order(&self, a: usize, b: usize) -> Ordering {
        let (pa, pb) = (self.prefixes[a], self.prefixes[b]);
        pa.cmp(&pb).then_with(|| {
            if K::prefix_is_exact(pa) {
                Ordering::Equal
            } else {
                K::encoded_cmp(self.sources[a].key_bytes(), self.sources[b].key_bytes())
            }
        })
    }

    /// Whether source `a`'s head comes before `b`'s: a head before none,
    /// then key order, then source order.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.live[a], self.live[b]) {
            (true, true) => self.key_order(a, b).then(a.cmp(&b)).is_lt(),
            (live_a, live_b) => live_a && !live_b,
        }
    }

    /// Replay the matches on `source`'s path after its head changed; it
    /// must have been the first.
    fn replay(&mut self, source: usize) {
        let mut winner = source;
        let mut node = (self.sources.len() + source) / 2;
        while node > 0 {
            if self.beats(self.tree[node], winner) {
                std::mem::swap(&mut self.tree[node], &mut winner);
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// Replay every match.
    fn rebuild(&mut self) {
        if !self.sources.is_empty() {
            self.tree[0] = self.play(1);
        }
    }

    /// The winner of the match at `node`, recording the loser of every
    /// match below it.
    fn play(&mut self, node: usize) -> usize {
        let k = self.sources.len();
        if node >= k {
            return node - k;
        }
        let (a, b) = (self.play(2 * node), self.play(2 * node + 1));
        let (winner, loser) = if self.beats(b, a) { (b, a) } else { (a, b) };
        self.tree[node] = loser;
        winner
    }

    /// Drain everything into a vector (for tests / small outputs).
    pub fn collect_all(mut self) -> Result<Vec<(K, Vec<V>)>, E> {
        let mut out = Vec::new();
        while let Some(g) = self.next_group()? {
            out.push(g);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(budget: usize) -> ExternalTable<String, u64> {
        ExternalTable::new(budget, std::env::temp_dir()).unwrap()
    }

    fn reference(pairs: &[(&str, u64)]) -> Vec<(String, Vec<u64>)> {
        let mut m: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (k, v) in pairs {
            m.entry(k.to_string()).or_default().push(*v);
        }
        m.into_iter().collect()
    }

    /// Write `groups` (ascending keys) to `t` as one pre-sorted run.
    fn write_run<K: Key, V: Value>(t: &mut ExternalTable<K, V>, groups: &[(K, Vec<V>)]) {
        let single =
            (groups.iter()).all(|(k, vs)| fits_single_valued(k.wire_size(), vs.len() as u32));
        let mut rw = t.begin_sorted_run(single).unwrap();
        let mut b = BytesMut::new();
        for (k, vs) in groups {
            b.clear();
            k.encode(&mut b);
            rw.begin_group_raw(&b, vs.len() as u32);
            for v in vs {
                b.clear();
                v.encode(&mut b);
                rw.push_raw(&b);
            }
            rw.end_group().unwrap();
        }
        rw.finish().unwrap();
    }

    fn run<K: Key, V: Value>(t: &ExternalTable<K, V>, i: usize) -> Source<K, V, ExtMergeError> {
        Box::new(t.open_run(i).unwrap())
    }

    #[test]
    fn all_resident_when_under_budget() {
        let mut t = table(1 << 20);
        t.insert("b".into(), vec![2]).unwrap();
        t.insert("a".into(), vec![1]).unwrap();
        t.insert("a".into(), vec![3]).unwrap();
        assert_eq!(t.spilled_runs(), 0);
        let got = t.into_merge().unwrap().collect_all().unwrap();
        assert_eq!(got, reference(&[("b", 2), ("a", 1), ("a", 3)]));
    }

    #[test]
    fn tiny_budget_spills_many_runs_and_merges_correctly() {
        let mut t = table(64);
        let mut pairs = Vec::new();
        for i in 0..200u64 {
            let k = format!("key-{:02}", i % 17);
            t.insert(k.clone(), vec![i]).unwrap();
            pairs.push((k, i));
        }
        assert!(
            t.spilled_runs() > 5,
            "expected many spills: {}",
            t.spilled_runs()
        );
        let got = t.into_merge().unwrap().collect_all().unwrap();
        // Runs come out in spill order and the resident groups last, so
        // each key's values are in insertion order.
        let mut m: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (k, v) in pairs {
            m.entry(k).or_default().push(v);
        }
        assert_eq!(got, m.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn keys_stream_out_in_ascending_order() {
        let mut t = table(48);
        for i in (0..100u64).rev() {
            t.insert(format!("{:03}", i % 25), vec![i]).unwrap();
        }
        let mut merge = t.into_merge().unwrap();
        let mut last: Option<String> = None;
        while let Some((k, _)) = merge.next_group().unwrap() {
            if let Some(prev) = &last {
                assert!(*prev < k, "order violated: {prev} !< {k}");
            }
            last = Some(k);
        }
    }

    #[test]
    fn empty_table_merges_to_nothing() {
        let t = table(128);
        assert!(t.into_merge().unwrap().collect_all().unwrap().is_empty());
    }

    #[test]
    fn spill_dir_is_cleaned_up() {
        let mut t = table(16);
        for i in 0..50u64 {
            t.insert(format!("k{i}"), vec![i]).unwrap();
        }
        let dir = t.spill_dir.clone();
        assert!(dir.exists());
        let merge = t.into_merge().unwrap();
        assert!(dir.exists(), "the runs stay while the merge reads them");
        let _ = merge.collect_all().unwrap();
        // MergeIter's cleanup guard removed the directory.
        assert!(!dir.exists(), "spill dir should be removed");
    }

    #[test]
    fn sorted_runs_and_tail_merge_like_inserts() {
        // Two pre-sorted runs plus a tail of groups held in memory merge to
        // the same groups the insert path produces, with per-key value order
        // = the order the sources are listed in.
        let with_two_runs = || {
            let mut t = table(1 << 20);
            write_run(&mut t, &[(s("a"), vec![1u64, 2]), (s("c"), vec![3])]);
            write_run(&mut t, &[(s("a"), vec![4])]);
            assert_eq!(t.spilled_runs(), 2);
            t
        };
        let tail = [(s("a"), vec![5u64]), (s("b"), vec![6])];
        let merged_a = (s("a"), vec![1, 2, 4, 5]);
        let t = with_two_runs();
        let sources = vec![
            run(&t, 0),
            run(&t, 1),
            decoded_source(tail.clone().into_iter().map(Ok)),
        ];
        assert_eq!(
            t.into_merge_of(sources).collect_all().unwrap(),
            vec![merged_a.clone(), (s("b"), vec![6]), (s("c"), vec![3])]
        );
        // Listed the other way round, the values come the other way round.
        let t = with_two_runs();
        let sources = vec![
            decoded_source(tail.clone().into_iter().map(Ok)),
            run(&t, 1),
            run(&t, 0),
        ];
        let merge = t.into_merge_of(sources);
        assert_eq!(merge.collect_all().unwrap()[0].1, vec![5, 4, 1, 2]);

        // The tail is pulled a group at a time: one it fails to produce
        // costs no group before it, and ends the merge.
        let [a, b] = tail;
        let failing = [Ok(a), Err(CodecError::Truncated.into()), Ok(b)];
        let t = with_two_runs();
        let sources = vec![run(&t, 0), run(&t, 1), decoded_source(failing.into_iter())];
        let mut merge = t.into_merge_of(sources);
        assert_eq!(merge.next_group().unwrap(), Some(merged_a));
        assert!(matches!(merge.next_group(), Err(ExtMergeError::Codec(_))));
        assert_eq!(merge.next_group().unwrap(), None);

        // So is a run: a first record cut short on disk fails the first
        // call, not the opening of the run, and allocates nothing for the
        // length its word claims.
        let t = with_two_runs();
        let file = File::options().write(true).open(&t.runs[1]).unwrap();
        file.set_len(6).unwrap();
        let sources = vec![run(&t, 0), run(&t, 1)];
        let mut merge = t.into_merge_of(sources);
        assert!(matches!(
            merge.next_group(),
            Err(ExtMergeError::Codec(CodecError::Truncated))
        ));
        assert_eq!(merge.next_group().unwrap(), None);
    }

    #[test]
    fn values_larger_than_budget_still_work() {
        let mut t = table(8);
        t.insert("x".into(), (0..100).collect()).unwrap();
        t.insert("y".into(), vec![1]).unwrap();
        let got = t.into_merge().unwrap().collect_all().unwrap();
        assert_eq!(got[0].1.len(), 100);
        assert_eq!(got[1], ("y".into(), vec![1]));
    }

    fn s(x: &str) -> String {
        x.to_string()
    }

    /// Keys that tie on their eight-byte prefix and are not whole within
    /// it: long strings sharing their first seven bytes, and pairs, whose
    /// prefix says nothing.
    fn long_key(i: u32) -> String {
        format!("shared-prefix-{i:03}")
    }

    type Grouped<K> = Vec<(K, Vec<u64>)>;

    /// `n_ranks` ranks of `n_windows` windows, each window one run holding
    /// every key of `keys` that `(rank, window)` is given by `has`, with
    /// the value `rank * 1000 + window`; every run is listed in (rank,
    /// window) order and the merge must come out as one `BTreeMap` fold in
    /// that order.
    fn merge_by_source_order<K: Key>(
        keys: &[K],
        n_ranks: u64,
        n_windows: u64,
        has: impl Fn(u64, u64, usize) -> bool,
    ) -> (Grouped<K>, Grouped<K>) {
        let mut t = ExternalTable::<K, u64>::new(1, std::env::temp_dir()).unwrap();
        let mut want = BTreeMap::<K, Vec<u64>>::new();
        for rank in 0..n_ranks {
            for window in 0..n_windows {
                let mut groups: Vec<(K, Vec<u64>)> = (keys.iter().enumerate())
                    .filter(|&(i, _)| has(rank, window, i))
                    .map(|(_, k)| (k.clone(), vec![rank * 1000 + window]))
                    .collect();
                groups.sort();
                for (k, vs) in &groups {
                    want.entry(k.clone()).or_default().extend(vs);
                }
                write_run(&mut t, &groups);
            }
        }
        let sources = (0..t.spilled_runs()).map(|i| run(&t, i)).collect();
        let got = t.into_merge_of(sources).collect_all().unwrap();
        (got, want.into_iter().collect())
    }

    #[test]
    fn one_key_over_ranks_and_windows_comes_out_in_source_order() {
        // Every key in most runs; the prefix never settles a tie.
        let strings: Vec<String> = (0..40).rev().map(long_key).collect();
        let has = |rank: u64, window: u64, i: usize| !(rank + window + i as u64).is_multiple_of(4);
        let (got, want) = merge_by_source_order(&strings, 3, 4, has);
        assert_eq!(got.len(), 40);
        assert_eq!(got, want);
        let pairs: Vec<(u32, String)> = (0..40u32).map(|i| (i % 3, long_key(i / 3))).collect();
        let (got, want) = merge_by_source_order(&pairs, 3, 4, has);
        assert_eq!(got.len(), 40);
        assert_eq!(got, want);
        // One key in every one of the twelve runs.
        let first = &got.iter().find(|(k, _)| *k == (0, long_key(0))).unwrap().1;
        let in_order = (0..3).flat_map(|r| (0..4).map(move |w| (r, w)));
        let has_key_0 = in_order.filter(|&(r, w)| has(r, w, 0));
        let values: Vec<u64> = has_key_0.map(|(r, w)| r * 1000 + w).collect();
        assert_eq!(first, &values);
    }

    #[test]
    fn two_hundred_runs_and_empty_ones_merge() {
        // 2 ranks of 110 windows: every fifth window of each rank empty,
        // and each key in a run of every rank.
        let keys: Vec<String> = (0..300).map(|i| format!("k{i:04}")).collect();
        let has = |_rank: u64, window: u64, i: usize| {
            !window.is_multiple_of(5) && i as u64 % 110 == window
        };
        let (got, want) = merge_by_source_order(&keys, 2, 110, has);
        assert_eq!(got, want);
        assert_eq!(
            got.len(),
            240,
            "keys in a multiple-of-five window are in none"
        );
        assert!(got
            .iter()
            .all(|(_, vs)| vs.len() == 2 && vs[1] == vs[0] + 1000));
        // A merge of nothing but empty runs and an empty tail.
        let mut t = table(1);
        for _ in 0..3 {
            write_run(&mut t, &[]);
        }
        let mut sources: Vec<_> = (0..3).map(|i| run(&t, i)).collect();
        sources.push(decoded_source(std::iter::empty()));
        let mut merge = t.into_merge_of(sources);
        assert_eq!(merge.next_group().unwrap(), None);
        assert_eq!(merge.next_group().unwrap(), None);
    }

    #[test]
    fn a_run_that_breaks_mid_merge_ends_the_merge() {
        // Runs of several frames, each key in both; the second run's
        // second frame has a count word no frame could hold.
        let groups: Vec<(String, Vec<u64>)> = (0..20_000u64)
            .map(|i| (format!("key-{i:06}"), vec![i]))
            .collect();
        let mut t = table(1);
        write_run(&mut t, &groups);
        write_run(&mut t, &groups);
        let mut bytes = std::fs::read(&t.runs[1]).unwrap();
        let first_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert!(4 + first_len < bytes.len(), "more than one frame");
        let count_at = 4 + first_len + 4;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&t.runs[1], &bytes).unwrap();
        let sources = vec![run(&t, 0), run(&t, 1)];
        let mut merge = t.into_merge_of(sources);
        let mut delivered = 0;
        let err = loop {
            match merge.next_group() {
                Ok(Some((k, vs))) => {
                    assert_eq!((k, vs.len()), (groups[delivered].0.clone(), 2));
                    delivered += 1;
                }
                Ok(None) => panic!("the broken frame was skipped"),
                Err(e) => break e,
            }
        };
        assert!(delivered > 0 && delivered < groups.len());
        assert!(matches!(err, ExtMergeError::Codec(CodecError::Truncated)));
        for _ in 0..3 {
            assert_eq!(merge.next_group().unwrap(), None);
        }
    }
}
