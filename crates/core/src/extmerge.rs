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
//! Run file format: a sequence of `u32 len , frame` records, each frame a
//! one-group [`crate::realign`] frame body (`begin_record` writes it,
//! [`FrameReader`] reads it) — so runs reuse the realignment codec, a group
//! of one value takes the single-valued layout (`u32 1|bit 31 , key , value`,
//! no count), and runs are readable incrementally with bounded memory.

use crate::kv::{CodecError, Key, Value};
use crate::realign::{begin_record, FrameReader};
use bytes::BytesMut;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::path::PathBuf;

/// Errors from spill-file I/O and decoding.
#[derive(Debug)]
pub enum ExtMergeError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A spilled run's group failed to decode: on-disk corruption, or bad
    /// content a producer copied into the run verbatim.
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
    spilled_bytes: u64,
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
        Ok(())
    }

    /// Start a run that the caller fills with groups in **ascending key
    /// order** — the path a producer that already holds sorted data (the
    /// receiver's frame-run merge) uses to spill without the resident
    /// `BTreeMap` resort. The run is numbered, in spill order, when
    /// [`RunWriter::finish`] is called; an unfinished writer's file is
    /// abandoned and swept with the spill directory.
    pub fn begin_sorted_run(&mut self) -> std::io::Result<RunWriter<'_, K, V>> {
        let path = self
            .spill_dir
            .join(format!("run-{:05}.spill", self.runs.len()));
        let w = BufWriter::new(File::create(&path)?);
        Ok(RunWriter {
            table: self,
            w,
            path,
            frame: BytesMut::new(),
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
        sources.push(Box::new(resident.into_iter().map(Ok)));
        Ok(self.into_merge_of(sources))
    }

    /// Run `i`, in spill order, opened to be read back as a merge source.
    pub fn open_run(&self, i: usize) -> std::io::Result<RunReader<K, V>> {
        Ok(RunReader {
            r: BufReader::new(File::open(&self.runs[i])?),
            buf: Vec::new(),
            _groups: PhantomData,
        })
    }

    /// The merge of `sources`, listed in the order an equal key's values
    /// are to be collected in, whatever kind each is — a run from
    /// [`open_run`](Self::open_run), groups a producer still holds in
    /// memory. Each source reports its own errors; the merge passes the
    /// first one on. The merge takes over the spill directory.
    pub fn into_merge_of<E>(self, sources: Vec<Source<K, V, E>>) -> MergeIter<K, V, E> {
        let n_sources = sources.len();
        MergeIter {
            sources,
            heads: std::iter::repeat_with(|| None).take(n_sources).collect(),
            taken: (0..n_sources).collect(),
            _cleanup: DirCleanup(self.spill_dir.clone()),
        }
    }
}

/// One source of a [`MergeIter`]: groups in ascending key order, each key
/// once, or the error that ends them.
pub type Source<K, V, E> = Box<dyn Iterator<Item = Result<(K, Vec<V>), E>> + Send>;

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
    pub fn end_group(&mut self) -> std::io::Result<()> {
        self.w.write_all(&(self.frame.len() as u32).to_le_bytes())?;
        self.w.write_all(&self.frame)?;
        self.table.spilled_bytes += 4 + self.frame.len() as u64;
        Ok(())
    }

    /// Flush and register the run with the owning table.
    pub fn finish(mut self) -> std::io::Result<()> {
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

/// A spilled run, read back one group at a time
/// ([`ExternalTable::open_run`]).
pub struct RunReader<K, V> {
    r: BufReader<File>,
    /// Frame scratch, reused across records so streaming a run performs no
    /// per-record allocation.
    buf: Vec<u8>,
    _groups: PhantomData<fn() -> (K, V)>,
}

impl<K: Key, V: Value> RunReader<K, V> {
    fn next_group(&mut self) -> Result<Option<(K, Vec<V>)>, ExtMergeError> {
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

impl<K: Key, V: Value> Iterator for RunReader<K, V> {
    type Item = Result<(K, Vec<V>), ExtMergeError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_group().transpose()
    }
}

/// Streaming k-way merge over an ordered list of sources (see
/// [`ExternalTable::into_merge_of`]): yields `(key, merged values)` in
/// ascending key order, each key exactly once, its values collected source
/// by source in list order.
pub struct MergeIter<K: Key, V: Value, E = ExtMergeError> {
    sources: Vec<Source<K, V, E>>,
    /// The next group of each source, in list order.
    heads: Vec<Option<(K, Vec<V>)>>,
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
            self.heads.clear();
            self.taken.clear();
        }
        next
    }

    #[allow(clippy::type_complexity)]
    fn merge_next(&mut self) -> Result<Option<(K, Vec<V>)>, E> {
        // Refill the heads the last call took: now rather than then, so
        // that a failing source costs no group that came before its own.
        while let Some(i) = self.taken.pop() {
            self.heads[i] = self.sources[i].next().transpose()?;
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
        let run = |t: &ExternalTable<String, u64>, i| -> Source<String, u64, ExtMergeError> {
            Box::new(t.open_run(i).unwrap())
        };
        let tail = [("a".to_string(), vec![5u64]), ("b".to_string(), vec![6])];
        let merged_a = ("a".to_string(), vec![1, 2, 4, 5]);
        let t = with_two_runs();
        let sources = vec![
            run(&t, 0),
            run(&t, 1),
            Box::new(tail.clone().into_iter().map(Ok)),
        ];
        assert_eq!(
            t.into_merge_of(sources).collect_all().unwrap(),
            vec![
                merged_a.clone(),
                ("b".to_string(), vec![6]),
                ("c".to_string(), vec![3]),
            ]
        );
        // Listed the other way round, the values come the other way round.
        let t = with_two_runs();
        let sources = vec![
            Box::new(tail.clone().into_iter().map(Ok)),
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
        let sources = vec![run(&t, 0), run(&t, 1), Box::new(failing.into_iter())];
        let mut merge = t.into_merge_of(sources);
        assert_eq!(merge.next_group().unwrap(), Some(merged_a));
        assert!(matches!(merge.next_group(), Err(ExtMergeError::Codec(_))));
        assert_eq!(merge.next_group().unwrap(), None);

        // So is a run: a first record cut short on disk fails the first
        // call, not the opening of the run.
        let t = with_two_runs();
        let file = File::options().write(true).open(&t.runs[1]).unwrap();
        file.set_len(6).unwrap();
        let sources = vec![run(&t, 0), run(&t, 1)];
        let mut merge = t.into_merge_of(sources);
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
