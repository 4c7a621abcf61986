//! What the identity tests share: a job shape with both frame layouts on
//! the wire in one job, to one reducer, with no combiner.

use proptest::prelude::*;

/// Records a mapper sends between two spills of a [`mixed_layout_pairs`] job.
pub const EPOCH: usize = 8;

/// One `(repeats a key, key seed)` entry per spill epoch.
pub fn arb_epochs() -> impl Strategy<Value = Vec<(bool, u64)>> {
    proptest::collection::vec((any::<bool>(), 0u64..40), 2..10)
}

/// Pairs for `mappers` mappers that each take every `mappers`-th pair (pair
/// `j` goes to mapper `j % mappers`), in epochs of [`EPOCH`] equal-sized
/// records per mapper: with `spill_threshold_bytes` = one epoch's bytes,
/// every epoch is one spill. An epoch's keys (three digits, drawn from forty,
/// so they recur across epochs and mappers) are distinct, except that an
/// epoch marked `true` sends its first key again as its last: without a
/// combiner its frames for that key's reducer carry value counts, while an
/// unmarked epoch's frames are all in the single-valued layout. Two fixed
/// epochs come first — the same keys, unmarked then marked — so the reducer
/// that owns key `"000"` is sure to receive both layouts. Values are the
/// pair's index, so any reordering shows.
pub fn mixed_layout_pairs(epochs: &[(bool, u64)], mappers: usize) -> Vec<(String, u64)> {
    let epochs = [(false, 0), (true, 0)]
        .into_iter()
        .chain(epochs.iter().copied());
    let mut pairs = Vec::new();
    for (repeat, seed) in epochs {
        for i in 0..EPOCH {
            let i = if repeat && i == EPOCH - 1 {
                0
            } else {
                i as u64
            };
            for _ in 0..mappers {
                pairs.push((format!("{:03}", (seed + 7 * i) % 40), pairs.len() as u64));
            }
        }
    }
    pairs
}
