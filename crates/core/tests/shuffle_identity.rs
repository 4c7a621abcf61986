//! Property tests for the shuffle-strategy seam: every [`ShuffleKind`]
//! must leave the job's grouped output indistinguishable from baseline.
//!
//! Without a combiner the claim is strict bit identity: in-node leaders
//! insert relayed groups by ascending member rank and relay (= spill-epoch)
//! order — exactly the order the reducer's stable-by-source merge gives the
//! baseline runs — so the full ordered `(key, values)` stream each reducer
//! yields is byte-for-byte the baseline stream, across thread counts and
//! compression settings. With a combiner, in-node leaders legally re-fold
//! per-epoch accumulators (the Hadoop combiner contract), so identity is
//! asserted at the reduced output: same key sequence, same per-key fold.
//! A memory budget on the reducers changes none of this: the windowed
//! external receiver path delivers byte for byte what the in-memory one
//! does.

mod common;

use mpi_rt::Universe;
use mpid::{Kv, MpidConfig, MpidWorld, Role, ShuffleKind, SumCombiner};
use proptest::prelude::*;

fn arb_pairs() -> impl Strategy<Value = Vec<(String, u64)>> {
    proptest::collection::vec(("[a-e]{1,3}", 0u64..1000), 1..150)
}

/// Small frames and spill windows so even modest inputs cross every spill,
/// frame, and relay boundary the identity claim has to survive.
fn base_cfg(mappers: usize, reducers: usize) -> MpidConfig {
    MpidConfig {
        n_mappers: mappers,
        n_reducers: reducers,
        spill_threshold_bytes: 512,
        frame_bytes: 128,
        ..Default::default()
    }
}

/// Run a job (static per-mapper shards, like `threaded_identity`) and
/// return every reducer's `(key, values)` stream in reducer-rank order.
fn run_job(cfg: MpidConfig, pairs: &[(String, u64)], combine: bool) -> Vec<(String, Vec<u64>)> {
    let pairs = pairs.to_vec();
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(Vec::<u64>::new()).unwrap();
                None
            }
            Role::Mapper(m) => {
                while world.next_split::<u64>().unwrap().is_some() {}
                let mut send = world.sender::<String, u64>();
                if combine {
                    send = send.with_combiner(SumCombiner);
                }
                for (k, v) in pairs.iter().skip(m).step_by(cfg.n_mappers) {
                    send.send(k.clone(), *v).unwrap();
                }
                send.finish().unwrap();
                None
            }
            Role::Reducer(_) => {
                let mut recv = world.receiver::<String, u64>();
                Some(recv.recv_all().unwrap())
            }
        }
    });
    results.into_iter().flatten().flatten().collect()
}

/// Reduced view for combiner runs: key order preserved, each value list
/// folded with the job's (commutative) combiner.
fn summed(groups: &[(String, Vec<u64>)]) -> Vec<(String, u64)> {
    groups
        .iter()
        .map(|(k, vs)| (k.clone(), vs.iter().sum::<u64>()))
        .collect()
}

/// The non-baseline strategy grid each case sweeps.
fn strategies() -> [ShuffleKind; 3] {
    [
        ShuffleKind::InNodeCombine {
            mappers_per_host: 1,
        },
        ShuffleKind::InNodeCombine {
            mappers_per_host: 2,
        },
        ShuffleKind::InNodeCombine {
            mappers_per_host: 4,
        },
    ]
}

proptest! {
    // Every case spawns several whole universes; keep case counts low.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// No combiner: the full ordered output of every strategy is
    /// bit-identical to baseline, across thread counts and compression.
    #[test]
    fn grouped_output_bit_identical_across_strategies(
        pairs in arb_pairs(),
        mappers in 2usize..5,
        reducers in 1usize..3,
        threads in 1usize..3,
        compress: bool,
    ) {
        let base = MpidConfig { threads, compress, ..base_cfg(mappers, reducers) };
        let oracle = run_job(base.clone(), &pairs, false);
        for shuffle in strategies() {
            let cfg = MpidConfig { shuffle, ..base.clone() };
            prop_assert_eq!(
                run_job(cfg, &pairs, false),
                oracle.clone(),
                "strategy = {:?}",
                shuffle
            );
        }
    }

    /// With a combiner, in-node leaders re-fold accumulators, so identity
    /// holds at the reduced output: same key sequence, same per-key fold.
    #[test]
    fn combined_output_identical_with_combiner(
        pairs in arb_pairs(),
        mappers in 2usize..5,
        reducers in 1usize..3,
    ) {
        let base = base_cfg(mappers, reducers);
        let oracle = run_job(base.clone(), &pairs, true);
        for g in [1usize, 2, 3] {
            let cfg = MpidConfig {
                shuffle: ShuffleKind::InNodeCombine { mappers_per_host: g },
                ..base.clone()
            };
            prop_assert_eq!(
                summed(&run_job(cfg, &pairs, true)),
                summed(&oracle),
                "mappers_per_host = {}",
                g
            );
        }
    }

    /// Under a memory budget — one that rarely spills a window, one that
    /// spills a window every frame or two — the windowed receiver path
    /// still delivers the baseline's bytes under in-node combining.
    #[test]
    fn bounded_grouping_identical_across_strategies(
        pairs in arb_pairs(),
        mappers in 2usize..4,
        reducers in 1usize..3,
    ) {
        let base = base_cfg(mappers, reducers);
        let oracle = run_job(base.clone(), &pairs, false);
        for budget in [8usize << 10, 512] {
            let cfg = MpidConfig {
                shuffle: ShuffleKind::InNodeCombine { mappers_per_host: 2 },
                mem_budget: Some(budget),
                ..base.clone()
            };
            prop_assert_eq!(run_job(cfg, &pairs, false), oracle.clone(), "budget = {}", budget);
        }
    }

    /// Both frame layouts in one job (see `common::mixed_layout_pairs`): an
    /// in-node leader reads its members' frames in either layout and picks
    /// the layout of what it ships from the merged table — counted wherever
    /// two members sent the same key, single-valued again behind a combiner.
    #[test]
    fn mixed_layouts_identical_across_strategies(
        epochs in common::arb_epochs(),
        mappers in 2usize..5,
        reducers in 1usize..3,
        compress: bool,
    ) {
        let pairs = common::mixed_layout_pairs(&epochs, mappers);
        let base = MpidConfig {
            spill_threshold_bytes: common::EPOCH * (pairs[0].0.wire_size() + 8),
            frame_bytes: 64,
            compress,
            ..base_cfg(mappers, reducers)
        };
        let oracle = run_job(base.clone(), &pairs, false);
        let combined = summed(&run_job(base.clone(), &pairs, true));
        prop_assert_eq!(summed(&oracle), combined.clone());
        for shuffle in strategies() {
            let cfg = MpidConfig { shuffle, ..base.clone() };
            prop_assert_eq!(
                run_job(cfg.clone(), &pairs, false),
                oracle.clone(),
                "strategy = {:?}",
                shuffle
            );
            prop_assert_eq!(
                summed(&run_job(cfg, &pairs, true)),
                combined.clone(),
                "strategy = {:?}, combiner",
                shuffle
            );
        }
    }
}
