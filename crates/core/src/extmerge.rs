//! Bounded-memory grouping: an external merge table for the reducer.
//!
//! The in-memory receiver ([`crate::receiver::MpidReceiver`]) holds the
//! whole key space; for reduce inputs larger than memory Hadoop spills
//! sorted runs to disk and k-way merges them — the mechanism behind the
//! paper's concern for "saving memory space" on the reducer. This module is
//! that mechanism: an [`ExternalTable`] accumulates `(key, values)` groups,
//! spills key-sorted runs to a temporary directory whenever the in-memory
//! estimate crosses a budget, and finally streams globally key-ordered
//! merged groups out of a k-way heap merge over the runs plus the resident
//! tail.
//!
//! Run file format: a sequence of `u32 len , frame` records, each frame a
//! one-group [`crate::realign`] frame body (`begin_record` writes it,
//! [`FrameReader`] reads it) — so runs reuse the realignment codec, a group
//! of one value takes the single-valued layout (`u32 1|bit 31 , key , value`,
//! no count), and runs are readable incrementally with bounded memory.

use crate::kv::{CodecError, Key, Value};
use crate::pool::{BlockPool, PoolCharge};
use crate::realign::{begin_record, FrameReader};
use bytes::BytesMut;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;

/// Errors from spill-file I/O and decoding.
#[derive(Debug)]
pub enum ExtMergeError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A spilled run failed to decode (on-disk corruption).
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
    spill_dir: PathBuf,
    runs: Vec<PathBuf>,
    next_run: usize,
    spilled_bytes: u64,
    /// Mirror of `resident_bytes` against the job's block pool (no-op
    /// without one; see [`ExternalTable::with_pool`]).
    charge: PoolCharge,
}

impl<K: Key, V: Value> ExternalTable<K, V> {
    /// Table with the given in-memory byte budget. Runs are written under a
    /// unique subdirectory of `dir` (pass `std::env::temp_dir()` normally);
    /// the directory is removed on drop.
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
            next_run: 0,
            spilled_bytes: 0,
            charge: PoolCharge::new(None),
        })
    }

    /// Charge the resident set to a job-wide [`BlockPool`]: pool pressure
    /// becomes an additional spill trigger (spill-then-retry, forcing only
    /// when a single insert exceeds what the pool has free), so the table's
    /// buffering shows up in — and yields to — the job's byte budget. The
    /// extra spills can change run *counts* under contention, never merged
    /// output.
    pub fn with_pool(mut self, pool: Option<std::sync::Arc<BlockPool>>) -> Self {
        self.charge = PoolCharge::new(pool);
        self
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

    /// Current resident-memory estimate, bytes.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Add values for a key, spilling if the budget is exceeded.
    pub fn insert(&mut self, key: K, values: Vec<V>) -> Result<(), ExtMergeError> {
        let added: usize = key.wire_size() + values.iter().map(|v| v.wire_size()).sum::<usize>();
        if !self.charge.try_grow(added) {
            // Pool exhausted: spill what we hold (releasing our charge) and
            // retry; force only if the insert alone exceeds the free pool.
            self.spill()?;
            if !self.charge.try_grow(added) {
                self.charge.grow(added);
            }
        }
        self.resident_bytes += added;
        self.resident.entry(key).or_default().extend(values);
        if self.resident_bytes > self.budget_bytes {
            self.spill()?;
        }
        Ok(())
    }

    /// Force the resident table out as a sorted run.
    pub fn spill(&mut self) -> Result<(), ExtMergeError> {
        if self.resident.is_empty() {
            return Ok(());
        }
        let mut run = self.begin_sorted_run()?;
        // BTreeMap iterates in ascending key order — runs are sorted.
        for (k, vs) in std::mem::take(&mut run.table.resident) {
            let n_values = vs.len() as u32;
            begin_record(&mut run.frame, k.wire_size(), |b| k.encode(b), n_values);
            vs.iter().for_each(|v| v.encode(&mut run.frame));
            run.end_group()?;
        }
        run.finish()?;
        self.resident_bytes = 0;
        self.charge.clear();
        Ok(())
    }

    /// Start a run that the caller fills with groups in **ascending key
    /// order** — the path a producer that already holds sorted data (the
    /// batched receiver's frame-run merge) uses to spill without the
    /// resident `BTreeMap` resort. The run joins the merge set when
    /// [`RunWriter::finish`] is called; an unfinished writer's file is
    /// abandoned and swept with the spill directory.
    pub fn begin_sorted_run(&mut self) -> Result<RunWriter<'_, K, V>, ExtMergeError> {
        let path = self
            .spill_dir
            .join(format!("run-{:05}.spill", self.next_run));
        self.next_run += 1;
        let w = BufWriter::new(File::create(&path)?);
        Ok(RunWriter {
            table: self,
            w,
            path,
            frame: BytesMut::new(),
        })
    }

    /// Finish ingestion: returns an iterator of globally key-ordered merged
    /// groups (k-way merge of all runs plus the resident tail). This opens
    /// the run files and reads none of them: a run that cannot be read or
    /// decoded fails the [`MergeIter::next_group`] that needs its next
    /// group, the first call included.
    pub fn into_merge(mut self) -> Result<MergeIter<K, V>, ExtMergeError> {
        let resident = std::mem::take(&mut self.resident);
        self.merge_impl(Box::new(resident.into_iter().map(Ok)))
    }

    /// Like [`ExternalTable::into_merge`], but with a caller-supplied tail
    /// of already-merged groups in ascending key order (the batched
    /// receiver's final unspilled window), pulled one group at a time as
    /// the merge reaches them; a group the tail fails to produce fails that
    /// [`MergeIter::next_group`], as for a run. The merge owns the tail, so
    /// it is `Send + 'static` like the rest of a [`MergeIter`]. The resident
    /// table must be empty — a producer uses either `insert` or sorted runs
    /// + tail, not both.
    pub fn into_merge_with_tail(
        mut self,
        tail: impl Iterator<Item = Result<(K, Vec<V>), ExtMergeError>> + Send + 'static,
    ) -> Result<MergeIter<K, V>, ExtMergeError> {
        assert!(
            self.resident.is_empty(),
            "into_merge_with_tail with resident entries; use into_merge"
        );
        self.merge_impl(Box::new(tail))
    }

    fn merge_impl(&mut self, tail: Tail<K, V>) -> Result<MergeIter<K, V>, ExtMergeError> {
        let mut readers = Vec::with_capacity(self.runs.len());
        for path in &self.runs {
            readers.push(RunReader::open(path)?);
        }
        let n_sources = readers.len() + 1;
        Ok(MergeIter {
            readers,
            tail,
            heads: std::iter::repeat_with(|| None).take(n_sources).collect(),
            taken: (0..n_sources).collect(),
            _cleanup: DirCleanup(self.spill_dir.clone()),
        })
    }
}

/// A merge's last source: groups in ascending key order, each key once.
type Tail<K, V> = Box<dyn Iterator<Item = Result<(K, Vec<V>), ExtMergeError>> + Send>;

/// Writer for one pre-sorted run (see [`ExternalTable::begin_sorted_run`]).
/// Every record, a resident spill's included, is built here in one buffer
/// reused across the run; keys and values are appended as raw encoded bytes,
/// so spilling already-encoded frame data performs no decode/re-encode
/// round-trip.
pub struct RunWriter<'t, K: Key, V: Value> {
    table: &'t mut ExternalTable<K, V>,
    w: BufWriter<File>,
    path: PathBuf,
    frame: BytesMut,
}

impl<K: Key, V: Value> RunWriter<'_, K, V> {
    /// Open a group from its already-encoded key, declaring its value count
    /// (as [`crate::realign::FrameBuilder::begin_group_raw`]). Keys must
    /// arrive in strictly ascending order across calls (each key exactly
    /// once per run).
    pub fn begin_group_raw(&mut self, key_bytes: &[u8], n_values: u32) {
        let put_key = |b: &mut BytesMut| b.extend_from_slice(key_bytes);
        begin_record(&mut self.frame, key_bytes.len(), put_key, n_values);
    }

    /// Append already-encoded value bytes to the open group.
    pub fn push_raw(&mut self, value_bytes: &[u8]) {
        self.frame.extend_from_slice(value_bytes);
    }

    /// Write the open group's record to the run file.
    pub fn end_group(&mut self) -> Result<(), ExtMergeError> {
        self.w.write_all(&(self.frame.len() as u32).to_le_bytes())?;
        self.w.write_all(&self.frame)?;
        self.table.spilled_bytes += 4 + self.frame.len() as u64;
        Ok(())
    }

    /// Flush and register the run with the owning table.
    pub fn finish(mut self) -> Result<(), ExtMergeError> {
        self.w.flush()?;
        self.table.runs.push(self.path);
        Ok(())
    }
}

impl<K: Key, V: Value> Drop for ExternalTable<K, V> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.spill_dir);
    }
}

struct DirCleanup(PathBuf);
impl Drop for DirCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct RunReader {
    r: BufReader<File>,
    /// Frame scratch, reused across records so streaming a run performs no
    /// per-record allocation.
    buf: Vec<u8>,
}

impl RunReader {
    fn open(path: &PathBuf) -> Result<Self, ExtMergeError> {
        Ok(RunReader {
            r: BufReader::new(File::open(path)?),
            buf: Vec::new(),
        })
    }

    fn next_group<K: Key, V: Value>(&mut self) -> Result<Option<(K, Vec<V>)>, ExtMergeError> {
        let mut len_buf = [0u8; 4];
        match self.r.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        self.buf.clear();
        self.buf.resize(len, 0);
        self.r.read_exact(&mut self.buf)?;
        let mut reader = FrameReader::new(&self.buf)?;
        let group = reader.next_group::<K, V>()?;
        Ok(group)
    }
}

/// Streaming k-way merge over spilled runs and the tail: yields
/// `(key, merged values)` in ascending key order, each key exactly once.
pub struct MergeIter<K: Key, V: Value> {
    readers: Vec<RunReader>,
    tail: Tail<K, V>,
    /// The next group of each source: the runs in spill order, the tail
    /// last — the order an equal key's values are collected in.
    heads: Vec<Option<(K, Vec<V>)>>,
    /// Sources whose head the last call took (at first: all of them).
    taken: Vec<usize>,
    _cleanup: DirCleanup,
}

impl<K: Key, V: Value> MergeIter<K, V> {
    /// Next merged group, or `None` at end. A source that fails to produce
    /// a group fails the call that needs it as a head — every group
    /// delivered before is whole — and the merge is fused: after an error
    /// every later call returns `Ok(None)`.
    #[allow(clippy::type_complexity)]
    pub fn next_group(&mut self) -> Result<Option<(K, Vec<V>)>, ExtMergeError> {
        let next = self.merge_next();
        if next.is_err() {
            self.heads.clear();
            self.taken.clear();
        }
        next
    }

    #[allow(clippy::type_complexity)]
    fn merge_next(&mut self) -> Result<Option<(K, Vec<V>)>, ExtMergeError> {
        // Refill the heads the last call took: now rather than then, so
        // that a failing source costs no group that came before its own.
        while let Some(i) = self.taken.pop() {
            self.heads[i] = match self.readers.get_mut(i) {
                Some(run) => run.next_group()?,
                None => self.tail.next().transpose()?,
            };
        }
        // Locate the source holding the smallest key by index — comparisons
        // are by reference, so finding the minimum clones no key — the
        // earliest such source (`min_by` keeps the first of equals).
        let heads = self.heads.iter().enumerate();
        let best = heads
            .filter_map(|(i, head)| Some((i, &head.as_ref()?.0)))
            .min_by(|a, b| a.1.cmp(b.1))
            .map(|(i, _)| i);
        // Take the winning group whole: its key moves out by value, so the
        // merge extracts each key exactly once with no clone at all.
        let Some((b, (key, mut values))) = best.and_then(|b| Some((b, self.heads[b].take()?)))
        else {
            return Ok(None);
        };
        self.taken.push(b);
        // Absorb the key from every later source that has it (a source
        // holds a key once), in source order.
        for i in b + 1..self.heads.len() {
            if let Some((_, vs)) = self.heads[i].take_if(|(k, _)| *k == key) {
                values.extend(vs);
                self.taken.push(i);
            }
        }
        Ok(Some((key, values)))
    }

    /// Drain everything into a vector (for tests / small outputs).
    pub fn collect_all(mut self) -> Result<Vec<(K, Vec<V>)>, ExtMergeError> {
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
    use crate::kv::Kv;

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
        // Build the reference.
        let mut m: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (k, v) in pairs {
            m.entry(k).or_default().push(v);
        }
        // Merge concatenates per-run value lists; order across runs is
        // spill order, which here equals insertion order.
        let want: Vec<(String, Vec<u64>)> = m.into_iter().collect();
        assert_eq!(got.len(), want.len());
        for ((gk, mut gv), (wk, mut wv)) in got.into_iter().zip(want) {
            assert_eq!(gk, wk);
            gv.sort_unstable();
            wv.sort_unstable();
            assert_eq!(gv, wv, "values for {gk}");
        }
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
        let _ = merge.collect_all().unwrap();
        // MergeIter's cleanup guard removed the directory.
        assert!(!dir.exists(), "spill dir should be removed");
    }

    #[test]
    fn sorted_runs_and_tail_merge_like_inserts() {
        // Two pre-sorted runs plus a tail must merge to the same groups the
        // insert path produces, with per-key value order = run order, tail
        // last.
        let with_two_runs = || {
            let mut t = table(1 << 20);
            for run in [
                vec![("a", vec![1u64, 2]), ("c", vec![3])],
                vec![("a", vec![4])],
            ] {
                let mut rw = t.begin_sorted_run().unwrap();
                for (k, vs) in run {
                    let mut b = BytesMut::new();
                    k.to_string().encode(&mut b);
                    rw.begin_group_raw(&b, vs.len() as u32);
                    for v in &vs {
                        b.clear();
                        v.encode(&mut b);
                        rw.push_raw(&b);
                    }
                    rw.end_group().unwrap();
                }
                rw.finish().unwrap();
            }
            assert_eq!(t.spilled_runs(), 2);
            t
        };
        let tail = [("a".to_string(), vec![5u64]), ("b".to_string(), vec![6])];
        let merged_a = ("a".to_string(), vec![1, 2, 4, 5]);
        let merge =
            (with_two_runs().into_merge_with_tail(tail.clone().into_iter().map(Ok))).unwrap();
        assert_eq!(
            merge.collect_all().unwrap(),
            vec![
                merged_a.clone(),
                ("b".to_string(), vec![6]),
                ("c".to_string(), vec![3]),
            ]
        );

        // The tail is pulled a group at a time: one it fails to produce
        // costs no group before it, and ends the merge.
        let [a, b] = tail;
        let failing = [Ok(a), Err(CodecError::Truncated.into()), Ok(b)];
        let mut merge = (with_two_runs().into_merge_with_tail(failing.into_iter())).unwrap();
        assert_eq!(merge.next_group().unwrap(), Some(merged_a));
        assert!(matches!(merge.next_group(), Err(ExtMergeError::Codec(_))));
        assert_eq!(merge.next_group().unwrap(), None);

        // So is a run: a first record cut short on disk fails the first
        // call, not `into_merge_with_tail`.
        let t = with_two_runs();
        let run = File::options().write(true).open(&t.runs[1]).unwrap();
        run.set_len(6).unwrap();
        let mut merge = t.into_merge_with_tail(std::iter::empty()).unwrap();
        assert!(matches!(merge.next_group(), Err(ExtMergeError::Io(_))));
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
}
