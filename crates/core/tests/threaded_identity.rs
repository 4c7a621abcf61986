//! Property tests for the memory-bounded hot path: grouped job output must
//! be byte-for-byte independent of `MpidConfig::threads` (which the data
//! path no longer reads; the sweep pins that it stays inert) and of the
//! reducers' memory budget, at every mapper count.
//!
//! The oracle is always the same job at `threads = 1` with `mem_budget =
//! None`: the original single-threaded unbounded pipeline. Each mapper's
//! input is sharded statically (pair index mod mapper count) so its send
//! stream is deterministic, and every drain delivers an equal key's values
//! in (mapper rank, send order) — the in-memory merge by grouping its runs
//! by source rank, the windowed external merge by spilling one run per
//! source rank and merging them in (rank, window) order — so the full
//! ordered output, key order *and* value order, is reproducible at every
//! thread count and budget.

mod common;

use mpi_rt::Universe;
use mpid::{Kv, MpidConfig, MpidWorld, Role};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_pairs() -> impl Strategy<Value = Vec<(String, u64)>> {
    proptest::collection::vec(("[a-e]{1,3}", 0u64..1000), 1..150)
}

/// Small frames and spill windows so even modest inputs cross every
/// boundary the identity claim has to survive.
fn base_cfg(mappers: usize, reducers: usize) -> MpidConfig {
    MpidConfig {
        n_mappers: mappers,
        n_reducers: reducers,
        spill_threshold_bytes: 512,
        frame_bytes: 128,
        ..Default::default()
    }
}

/// Run a job and return the full grouped output: every reducer's
/// `(key, values)` stream, concatenated in reducer-rank order. No combiner
/// and no reduction — the assertion is about the exact groups the receiver
/// emits, not an aggregate that could mask reordering.
fn run_job(cfg: MpidConfig, pairs: &[(String, u64)]) -> Vec<(String, Vec<u64>)> {
    run_job_counting_frames(cfg, pairs).0
}

/// [`run_job`], plus the fewest frames (= merge runs) any reducer received.
fn run_job_counting_frames(
    cfg: MpidConfig,
    pairs: &[(String, u64)],
) -> (Vec<(String, Vec<u64>)>, u64) {
    let pairs = pairs.to_vec();
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(Vec::<u64>::new()).unwrap();
                None
            }
            Role::Mapper(m) => {
                // Drain the (empty) split queue to complete the master
                // protocol, then send a static shard: determinism of each
                // mapper's stream is what lets the thread matrix assert
                // byte identity rather than multiset equality.
                while world.next_split::<u64>().unwrap().is_some() {}
                let mut send = world.sender::<String, u64>();
                for (k, v) in pairs.iter().skip(m).step_by(cfg.n_mappers) {
                    send.send(k.clone(), *v).unwrap();
                }
                send.finish().unwrap();
                None
            }
            Role::Reducer(_) => {
                let mut recv = world.receiver::<String, u64>();
                let groups = recv.recv_all().unwrap();
                Some((groups, recv.stats().frames))
            }
        }
    });
    let per_reducer: Vec<_> = results.into_iter().flatten().collect();
    let min_frames = per_reducer.iter().map(|(_, f)| *f).min().unwrap_or(0);
    let groups = per_reducer.into_iter().flat_map(|(g, _)| g).collect();
    (groups, min_frames)
}

fn reference_sums(pairs: &[(String, u64)]) -> BTreeMap<String, u64> {
    let mut m: BTreeMap<String, u64> = BTreeMap::new();
    for (k, v) in pairs {
        *m.entry(k.clone()).or_insert(0) += v;
    }
    m
}

fn output_sums(groups: &[(String, Vec<u64>)]) -> BTreeMap<String, u64> {
    let mut m: BTreeMap<String, u64> = BTreeMap::new();
    for (k, vs) in groups {
        *m.entry(k.clone()).or_insert(0) += vs.iter().sum::<u64>();
    }
    m
}

proptest! {
    // Every case spawns several whole universes; keep case counts low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full ordered output is bit-identical across worker-thread counts
    /// (parallel receiver range merge vs. the single-threaded pipeline),
    /// for any mapper/reducer topology.
    #[test]
    fn output_identical_across_thread_counts(
        pairs in arb_pairs(),
        mappers in 1usize..4,
        reducers in 1usize..3,
    ) {
        let base = base_cfg(mappers, reducers);
        let oracle = run_job(base.clone(), &pairs);
        prop_assert_eq!(output_sums(&oracle), reference_sums(&pairs));
        for threads in [2usize, 4, 8] {
            let cfg = MpidConfig { threads, ..base.clone() };
            prop_assert_eq!(run_job(cfg, &pairs), oracle.clone(), "threads = {}", threads);
        }
    }

    /// With one mapper, the windowed external-merge path is bit-identical
    /// to the unbounded oracle at budgets forcing zero, a few, and many
    /// window spills.
    #[test]
    fn bounded_output_identical_single_mapper(
        pairs in arb_pairs(),
        reducers in 1usize..3,
    ) {
        let base = base_cfg(1, reducers);
        let oracle = run_job(base.clone(), &pairs);
        // ~3 KB of input max: 1 MB never spills, 8 KB spills rarely,
        // 512 B holds a frame or two per window and spills constantly.
        for budget in [1usize << 20, 8 << 10, 512] {
            let cfg = MpidConfig { mem_budget: Some(budget), ..base.clone() };
            prop_assert_eq!(run_job(cfg, &pairs), oracle.clone(), "budget = {}", budget);
        }
    }

    /// With several mappers the windowed path spills one run per source
    /// rank and merges them in (rank, window) order, so key order,
    /// grouping *and* value order match the unbounded oracle byte for byte
    /// at any budget/thread combination.
    #[test]
    fn bounded_grouping_identical_multi_mapper(
        pairs in arb_pairs(),
        mappers in 2usize..4,
        reducers in 1usize..3,
        threads in 1usize..5,
    ) {
        let base = base_cfg(mappers, reducers);
        let oracle = run_job(base.clone(), &pairs);
        for budget in [1usize << 20, 8 << 10, 512] {
            let cfg = MpidConfig { threads, mem_budget: Some(budget), ..base.clone() };
            prop_assert_eq!(
                run_job(cfg, &pairs),
                oracle.clone(),
                "budget = {} threads = {}",
                budget,
                threads
            );
        }
    }

    /// Many runs per reducer: a frame per group (`frame_bytes` below any
    /// group's size) and a spill every dozen pairs, so one reducer merges
    /// 64+ runs in which most keys recur. Output is bit-identical at every
    /// thread count, and at budgets forcing zero, a few and many window
    /// spills.
    #[test]
    fn many_runs_identical_across_threads_and_budgets(
        pairs in proptest::collection::vec(("[a-e]{1,3}", 0u64..1000), 150..300),
        mappers in 2usize..4,
    ) {
        let base = MpidConfig {
            spill_threshold_bytes: 192,
            frame_bytes: 8,
            ..base_cfg(mappers, 1)
        };
        let (oracle, runs) = run_job_counting_frames(base.clone(), &pairs);
        prop_assert!(runs >= 64, "only {} runs", runs);
        prop_assert_eq!(output_sums(&oracle), reference_sums(&pairs));
        for threads in [2usize, 4, 8] {
            let cfg = MpidConfig { threads, ..base.clone() };
            prop_assert_eq!(run_job(cfg, &pairs), oracle.clone(), "threads = {}", threads);
        }
        for budget in [1usize << 20, 2 << 10, 64] {
            for threads in [1usize, 2, 4, 8] {
                let cfg = MpidConfig { threads, mem_budget: Some(budget), ..base.clone() };
                prop_assert_eq!(
                    run_job(cfg, &pairs),
                    oracle.clone(),
                    "budget = {} threads = {}",
                    budget,
                    threads
                );
            }
        }
    }

    /// Both frame layouts in one job (see `common::mixed_layout_pairs`):
    /// output is bit-identical at every thread count, and at budgets forcing
    /// zero, a few and many window spills — whose disk-run records take
    /// either layout per group.
    #[test]
    fn mixed_layouts_identical_across_threads_and_budgets(
        epochs in common::arb_epochs(),
        mappers in 1usize..4,
        reducers in 1usize..3,
    ) {
        let pairs = common::mixed_layout_pairs(&epochs, mappers);
        let base = MpidConfig {
            spill_threshold_bytes: common::EPOCH * (pairs[0].0.wire_size() + 8),
            frame_bytes: 64,
            ..base_cfg(mappers, reducers)
        };
        let oracle = run_job(base.clone(), &pairs);
        prop_assert_eq!(output_sums(&oracle), reference_sums(&pairs));
        for threads in [2usize, 4] {
            let cfg = MpidConfig { threads, ..base.clone() };
            prop_assert_eq!(run_job(cfg, &pairs), oracle.clone(), "threads = {}", threads);
        }
        for budget in [1usize << 20, 1 << 10, 128] {
            let cfg = MpidConfig { mem_budget: Some(budget), ..base.clone() };
            prop_assert_eq!(run_job(cfg, &pairs), oracle.clone(), "budget = {}", budget);
        }
    }
}
