//! The MapReduce programming model shared by every engine in the suite.
//!
//! An application implements [`MapReduceApp`]; an input implements
//! [`InputFormat`]. The same application object then runs unchanged on:
//!
//! * [`crate::local::run_local`] — the single-process reference engine;
//! * [`crate::engine::run_mpid`] — real execution over MPI-D (`mpid` +
//!   `mpi-rt` ranks);
//! * [`crate::sim::run_sim_mpid`] — the cluster-scale cost simulation of the
//!   MPI-D pipeline (paper Figure 6's left bars).
//!
//! This mirrors how the paper's WordCount is "implemented based on above
//! simulation system with the MPI-D library" while typical Hadoop apps go
//! "through context collectors to hide the communication processes": the
//! app writes `map`/`reduce` against collectors and the engine wires them to
//! `MPI_D_Send`/`MPI_D_Recv`.

use bytes::BytesMut;
use mpid::kv::{Key, Kv, Value};
use mpid::partition::{HashPartitioner, Partitioner};

/// A MapReduce application: map/reduce logic plus optional combiner and
/// partitioner.
pub trait MapReduceApp: Send + Sync + 'static {
    /// Input record key (e.g. byte offset).
    type InKey: Kv + Clone + Send + 'static;
    /// Input record value (e.g. text line).
    type InVal: Kv + Clone + Send + 'static;
    /// Intermediate key.
    type MidKey: Key;
    /// Intermediate value.
    type MidVal: Value;
    /// Output key.
    type OutKey: Key;
    /// Output value.
    type OutVal: Value;

    /// The map function: emit intermediate pairs via `emit`.
    fn map(
        &self,
        key: Self::InKey,
        value: Self::InVal,
        emit: &mut dyn FnMut(Self::MidKey, Self::MidVal),
    );

    /// The reduce function: fold one key's value list into output pairs.
    fn reduce(
        &self,
        key: Self::MidKey,
        values: Vec<Self::MidVal>,
        emit: &mut dyn FnMut(Self::OutKey, Self::OutVal),
    );

    /// Optional combiner: fold a value into an accumulator. Must be
    /// associative and commutative (the engines may apply it zero or more
    /// times at arbitrary spill boundaries).
    #[allow(clippy::type_complexity)]
    fn combine(&self) -> Option<fn(&mut Self::MidVal, Self::MidVal)> {
        None
    }

    /// Partition assignment for an intermediate key (default: stable
    /// hash-mod, the Hadoop `HashPartitioner` analog).
    fn partition(&self, key: &Self::MidKey, n_reducers: usize) -> usize {
        HashPartitioner.partition(key, n_reducers)
    }
}

/// A splittable input source. Record iteration is lazy so synthetic inputs
/// can be far larger than memory.
pub trait InputFormat: Send + Sync + 'static {
    /// Record key type.
    type Key: Kv + Clone + Send + 'static;
    /// Record value type.
    type Val: Kv + Clone + Send + 'static;

    /// Number of splits.
    fn n_splits(&self) -> usize;

    /// Iterate the records of one split.
    ///
    /// # Panics
    /// Implementations may panic if `split >= n_splits()`.
    fn records(&self, split: usize) -> Box<dyn Iterator<Item = (Self::Key, Self::Val)> + '_>;

    /// Total records across all splits (walks every split by default).
    fn total_records(&self) -> usize {
        (0..self.n_splits()).map(|s| self.records(s).count()).sum()
    }
}

/// Mean encoded record size, in bytes, up to which a [`VecInput`] packs its
/// splits (the measurement behind it is on [`VecInput`]).
const PACK_MAX_MEAN_BYTES: usize = 512;

/// In-memory input: records dealt into splits.
///
/// Each input takes one of two layouts, chosen once at construction from
/// its mean encoded record size (key plus value [`Kv::wire_size`]):
///
/// * **packed** (mean ≤ 512 bytes): each split's records are encoded back
///   to back, key then value, into one buffer sized up front, and
///   [`InputFormat::records`] decodes them front to back. A mapper reads
///   its split as one sequential block, as the paper's map tasks read an
///   HDFS block. Kept as separate heap objects, the records of a
///   round-robin split sit `n` allocations apart, and reading each one is a
///   cache miss: on the 2 097 152-pair Zipf input, those misses were
///   roughly half of a one-mapper job's wall time.
/// * **owned** (mean > 512 bytes): each split is a `Vec<(K, V)>` and
///   `records` clones from it. Packing a record this large only copies it.
///   One copy at construction costs about what one avoided miss (~70 ns)
///   saves on a read near 512 bytes, and packing the benchmark's 4 KiB
///   values doubled its set-up time with job throughput flat.
///
/// Either way, split `s` of `n` yields the records dealt to it, in the
/// order given. On the packed arm they come back through [`Kv::decode`],
/// so a record type's codec must round-trip it, as every `Kv` type here
/// does.
pub struct VecInput<K, V> {
    splits: Splits<K, V>,
}

/// The two layouts of a [`VecInput`].
enum Splits<K, V> {
    Packed(Vec<PackedSplit>),
    Owned(Vec<Vec<(K, V)>>),
}

/// One split's records, each encoded as key then value, back to back.
struct PackedSplit {
    /// Records in `bytes`. Zero-width records take no bytes, so the count
    /// is what brings them back.
    count: usize,
    bytes: BytesMut,
}

impl PackedSplit {
    fn with_capacity(bytes: usize) -> Self {
        PackedSplit {
            count: 0,
            bytes: BytesMut::with_capacity(bytes),
        }
    }

    fn push<K: Kv, V: Kv>(&mut self, (k, v): (K, V)) {
        k.encode(&mut self.bytes);
        v.encode(&mut self.bytes);
        self.count += 1;
    }
}

fn record_bytes<K: Kv, V: Kv>((k, v): &(K, V)) -> usize {
    k.wire_size() + v.wire_size()
}

/// Whether `records` records of `bytes` encoded bytes in all take the
/// packed layout.
fn packs(bytes: usize, records: usize) -> bool {
    bytes <= PACK_MAX_MEAN_BYTES * records
}

impl<K: Kv, V: Kv> VecInput<K, V> {
    /// Wrap pre-split records.
    pub fn new(splits: Vec<Vec<(K, V)>>) -> Self {
        let bytes: Vec<usize> = splits
            .iter()
            .map(|split| split.iter().map(record_bytes).sum())
            .collect();
        let records = splits.iter().map(Vec::len).sum();
        if !packs(bytes.iter().sum(), records) {
            return VecInput {
                splits: Splits::Owned(splits),
            };
        }
        let packed = splits
            .into_iter()
            .zip(bytes)
            .map(|(split, bytes)| {
                let mut packed = PackedSplit::with_capacity(bytes);
                for r in split {
                    packed.push(r);
                }
                packed
            })
            .collect();
        VecInput {
            splits: Splits::Packed(packed),
        }
    }

    /// Split a flat record list into `n` round-robin splits: record `i`
    /// goes to split `i % n`, in order.
    pub fn round_robin(records: Vec<(K, V)>, n: usize) -> Self {
        assert!(n > 0);
        let mut bytes = vec![0; n];
        for (r, s) in records.iter().zip((0..n).cycle()) {
            bytes[s] += record_bytes(r);
        }
        if !packs(bytes.iter().sum(), records.len()) {
            let mut splits: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
            for (r, s) in records.into_iter().zip((0..n).cycle()) {
                splits[s].push(r);
            }
            return VecInput {
                splits: Splits::Owned(splits),
            };
        }
        // Deal in record order, so the caller's records are read front to
        // back, into buffers that never grow.
        let mut packed: Vec<PackedSplit> =
            bytes.into_iter().map(PackedSplit::with_capacity).collect();
        for (r, s) in records.into_iter().zip((0..n).cycle()) {
            packed[s].push(r);
        }
        VecInput {
            splits: Splits::Packed(packed),
        }
    }

    /// Whether this input took the packed layout.
    #[cfg(test)]
    fn is_packed(&self) -> bool {
        matches!(self.splits, Splits::Packed(_))
    }
}

impl<K, V> InputFormat for VecInput<K, V>
where
    K: Kv + Clone + Send + Sync + 'static,
    V: Kv + Clone + Send + Sync + 'static,
{
    type Key = K;
    type Val = V;
    fn n_splits(&self) -> usize {
        match &self.splits {
            Splits::Packed(splits) => splits.len(),
            Splits::Owned(splits) => splits.len(),
        }
    }
    fn records(&self, split: usize) -> Box<dyn Iterator<Item = (K, V)> + '_> {
        match &self.splits {
            Splits::Packed(splits) => {
                let PackedSplit { count, bytes } = &splits[split];
                let mut buf: &[u8] = bytes;
                Box::new((0..*count).map(move |_| {
                    let k = K::decode(&mut buf).expect("a packed key decodes as encoded");
                    let v = V::decode(&mut buf).expect("a packed value decodes as encoded");
                    (k, v)
                }))
            }
            Splits::Owned(splits) => Box::new(splits[split].iter().cloned()),
        }
    }
}

/// Text-line input: each split is a document; records are
/// `(line_number, line)` — the classic `TextInputFormat` shape.
pub struct TextInput {
    docs: Vec<String>,
}

impl TextInput {
    /// One split per document.
    pub fn new(docs: Vec<String>) -> Self {
        TextInput { docs }
    }
}

impl InputFormat for TextInput {
    type Key = u64;
    type Val = String;
    fn n_splits(&self) -> usize {
        self.docs.len()
    }
    fn records(&self, split: usize) -> Box<dyn Iterator<Item = (u64, String)> + '_> {
        Box::new(
            self.docs[split]
                .lines()
                .enumerate()
                .map(|(i, l)| (i as u64, l.to_string())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_input_round_robin_distributes() {
        let records: Vec<(u64, u64)> = (0..10).map(|i| (i, i * i)).collect();
        let input = VecInput::round_robin(records, 3);
        assert_eq!(input.n_splits(), 3);
        assert_eq!(input.total_records(), 10);
        let sizes: Vec<usize> = (0..3).map(|s| input.records(s).count()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    /// Checks the split contract of `round_robin(records, n)` and of
    /// `new(splits)` built by hand: split `s` yields records `s, s + n,
    /// s + 2n, …` of `records`, in order. Returns both inputs.
    fn deals_in_order<K, V>(records: Vec<(K, V)>, n: usize) -> [VecInput<K, V>; 2]
    where
        K: Kv + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
        V: Kv + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
    {
        let dealt =
            |s: usize| -> Vec<(K, V)> { records.iter().skip(s).step_by(n).cloned().collect() };
        let inputs = [
            VecInput::round_robin(records.clone(), n),
            VecInput::new((0..n).map(dealt).collect()),
        ];
        for (which, input) in ["round_robin", "new"].iter().zip(&inputs) {
            assert_eq!(input.n_splits(), n, "{which}");
            assert_eq!(input.total_records(), records.len(), "{which}");
            for s in 0..n {
                let got: Vec<(K, V)> = input.records(s).collect();
                assert!(got == dealt(s), "{which}: split {s} of {n} out of order");
            }
        }
        inputs
    }

    /// `(u64, Vec<u8>)` records with values of the given lengths, cycled.
    fn blobs(n: usize, value_lens: &[usize]) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|i| (i as u64, vec![i as u8; value_lens[i % value_lens.len()]]))
            .collect()
    }

    #[test]
    fn vec_input_split_s_holds_records_s_mod_n_in_order() {
        // Small records.
        let words: Vec<(String, u64)> = (0..1000).map(|i| (format!("w{}", i % 37), i)).collect();
        let [rr, built] = deals_in_order(words, 8);
        assert_eq!(arm(&rr, &built), "packed");
        // Mean encoded size well over 512 bytes (12 + 4096).
        let [rr, built] = deals_in_order(blobs(40, &[4096]), 3);
        assert_eq!(arm(&rr, &built), "owned");
        // Mixes with records on both sides of 512 bytes: a mean of exactly
        // (112 + 912) / 2 = 512, and one of 513.
        let [rr, built] = deals_in_order(blobs(40, &[100, 900]), 3);
        assert_eq!(arm(&rr, &built), "packed");
        let [rr, built] = deals_in_order(blobs(40, &[100, 902]), 3);
        assert_eq!(arm(&rr, &built), "owned");
        // Zero-width records still come back, one per record.
        let units: Vec<((), ())> = vec![((), ()); 7];
        let [rr, built] = deals_in_order(units, 3);
        assert_eq!(arm(&rr, &built), "packed");
        assert_eq!(rr.records(0).count(), 3);
        // More splits than records: the tail splits are empty.
        let few: Vec<(String, u64)> = (0..3).map(|i| (format!("k{i}"), i)).collect();
        let [rr, built] = deals_in_order(few, 5);
        assert_eq!(arm(&rr, &built), "packed");
        assert_eq!(rr.records(4).count(), 0);
    }

    /// The layout `round_robin` and `new` both chose for the same records.
    fn arm<K: Kv, V: Kv>(rr: &VecInput<K, V>, built: &VecInput<K, V>) -> &'static str {
        assert_eq!(
            rr.is_packed(),
            built.is_packed(),
            "the two constructors disagree"
        );
        if rr.is_packed() {
            "packed"
        } else {
            "owned"
        }
    }

    #[test]
    fn text_input_lines() {
        let input = TextInput::new(vec!["a b\nc".into(), "".into()]);
        let recs: Vec<_> = input.records(0).collect();
        assert_eq!(recs, vec![(0, "a b".to_string()), (1, "c".to_string())]);
        assert_eq!(input.records(1).count(), 0);
    }
}
