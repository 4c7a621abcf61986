//! `MpidConfig::threads` changes how a mapper's sender runs, never what it
//! sends.
//!
//! At `threads >= 2` the sender runs in two stages (`mpid::sender`'s "Two
//! stages"): the rank's thread encodes pairs into blocks, and a table
//! thread hashes, probes and folds them and realigns each spill. The
//! identity matrix pins what reducers and the master can see of that to
//! the `threads = 1` run: every frame each reducer receives, byte for byte
//! and in each source's send order, and each mapper's `SenderStats`, over
//! threads ∈ {1, 2, 4}, combiner or none, and plain, compressed, budgeted
//! and in-node-combined jobs — on small inputs whose blocks hand off only
//! at spills, and on one large enough to fill several blocks an epoch. A
//! combiner that panics on the table thread fails its mapper rank, and the
//! job, in seconds.
//!
//! The property tests after it pin grouped job output across thread
//! counts and the reducers' memory budget, at every mapper count. Their
//! oracle is the same job at `threads = 1` with `mem_budget = None`: the
//! single-threaded unbounded pipeline. Each mapper's input is sharded
//! statically (pair index mod mapper count) so its send stream is
//! deterministic, and every drain delivers an equal key's values in
//! (mapper rank, send order) — the in-memory merge by grouping its runs by
//! source rank, the windowed external merge by spilling one run per source
//! rank and merging them in (rank, window) order — so the full ordered
//! output, key order *and* value order, is reproducible at every thread
//! count and budget.

mod common;

use mpi_rt::{Rank, Universe};
use mpid::config::tags;
use mpid::pool::BLOCK_BYTES;
use mpid::{Combiner, Kv, MpidConfig, MpidWorld, Role, SenderStats, ShuffleKind, SumCombiner};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

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

/// Mapper `m`'s part of a job: drain the (empty) split queue to complete
/// the master protocol, then send a static shard, every mapper-count-th
/// pair. Each mapper's stream is then deterministic, which is what lets the
/// tests assert byte identity rather than multiset equality.
fn send_shard(world: &MpidWorld, m: usize, pairs: &[(String, u64)], combine: bool) -> SenderStats {
    while world.next_split::<u64>().unwrap().is_some() {}
    let mut send = world.sender::<String, u64>();
    if combine {
        send = send.with_combiner(SumCombiner);
    }
    for (k, v) in pairs.iter().skip(m).step_by(world.config().n_mappers) {
        send.send(k.clone(), *v).unwrap();
    }
    send.finish().unwrap()
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
                send_shard(&world, m, &pairs, false);
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

/// What a job shows outside its mappers: each reducer's frames, by source
/// rank, each source's in the order they arrived, and each mapper's sender
/// statistics.
#[derive(Debug, PartialEq)]
struct Shipped {
    frames: Vec<BTreeMap<Rank, Vec<Vec<u8>>>>,
    senders: Vec<SenderStats>,
}

enum Seen {
    Nothing,
    Sender(SenderStats),
    Frames(BTreeMap<Rank, Vec<Vec<u8>>>),
}

/// Run a job whose reducers take the raw wire frames off the data tag
/// instead of grouping them, and return what it shipped.
fn run_shipped(cfg: MpidConfig, pairs: &[(String, u64)], combine: bool) -> Shipped {
    let pairs = pairs.to_vec();
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(Vec::<u64>::new()).unwrap();
                Seen::Nothing
            }
            Role::Mapper(m) => Seen::Sender(send_shard(&world, m, &pairs, combine)),
            Role::Reducer(_) => {
                let mut frames = BTreeMap::<Rank, Vec<Vec<u8>>>::new();
                let mut ended = 0;
                while ended < cfg.n_mappers {
                    let (payload, status) = comm.recv::<u8>(None, Some(tags::DATA)).unwrap();
                    if payload.is_empty() {
                        ended += 1;
                    } else {
                        frames.entry(status.source).or_default().push(payload);
                    }
                }
                Seen::Frames(frames)
            }
        }
    });
    let mut shipped = Shipped {
        frames: Vec::new(),
        senders: Vec::new(),
    };
    for seen in results {
        match seen {
            Seen::Nothing => {}
            Seen::Sender(stats) => shipped.senders.push(stats),
            Seen::Frames(frames) => shipped.frames.push(frames),
        }
    }
    shipped
}

/// The identity matrix: for each kind of job built on `base`, with a
/// combiner and without, the frames and sender statistics at threads 2
/// and 4 equal those at 1.
fn assert_shipped_alike_at_every_thread_count(base: &MpidConfig, pairs: &[(String, u64)]) {
    let jobs = [
        ("plain", base.clone()),
        (
            "compressed",
            MpidConfig {
                compress: true,
                ..base.clone()
            },
        ),
        (
            "budgeted",
            MpidConfig {
                mem_budget: Some(2 << 10),
                ..base.clone()
            },
        ),
        (
            "in-node combined",
            MpidConfig {
                shuffle: ShuffleKind::InNodeCombine {
                    mappers_per_host: 2,
                },
                ..base.clone()
            },
        ),
    ];
    for (job, cfg) in jobs {
        for combine in [false, true] {
            let oracle = run_shipped(cfg.clone(), pairs, combine);
            assert_eq!(oracle.senders.len(), cfg.n_mappers);
            assert!(oracle.senders.iter().map(|s| s.frames).sum::<u64>() > 0);
            for threads in [2, 4] {
                let got = run_shipped(
                    MpidConfig {
                        threads,
                        ..cfg.clone()
                    },
                    pairs,
                    combine,
                );
                assert!(
                    got == oracle,
                    "{job} job, combiner {combine}, threads = {threads}: \
                     {:?} shipped, {:?} at threads = 1",
                    got.senders,
                    oracle.senders
                );
            }
        }
    }
}

/// Epochs of several blocks each, not a whole number of them, so pairs are
/// handed off block by block and at every spill in mid-block.
#[test]
fn blocks_and_spills_ship_alike_at_every_thread_count() {
    let pairs: Vec<(String, u64)> = (0..24_000u64)
        .map(|i| (format!("w{:04}", i * 7919 % 2_500), i))
        .collect();
    let base = MpidConfig {
        spill_threshold_bytes: 2 * BLOCK_BYTES + 5_000,
        frame_bytes: 4 << 10,
        ..base_cfg(2, 2)
    };
    let raw: usize = pairs
        .iter()
        .map(|(k, v)| k.wire_size() + v.wire_size())
        .sum();
    assert!(raw > 2 * base.spill_threshold_bytes);
    assert_shipped_alike_at_every_thread_count(&base, &pairs);
}

/// A combiner that gives up at its first fold.
struct GivesUp;

impl Combiner<u64> for GivesUp {
    fn combine(&self, _acc: &mut u64, _v: u64) {
        panic!("the combiner gave up");
    }
}

/// The first fold runs on the table thread, when `finish` hands it the
/// last block; its panic must come back through the mapper rank to
/// `Universe::run` at once, with no hang and no frame sent. The reducer
/// waits in `MPI_D_Recv` with no timeout: the mapper rank's panic aborts
/// the universe, and the reducer's wait with it.
#[test]
fn a_combiner_panic_on_the_table_thread_fails_the_job_in_seconds() {
    let cfg = MpidConfig {
        threads: 2,
        ..base_cfg(1, 1)
    };
    let t0 = Instant::now();
    let job = std::panic::catch_unwind(|| {
        Universe::run(cfg.required_ranks(), |comm| {
            let world = MpidWorld::init(comm, cfg.clone()).unwrap();
            match world.role() {
                Role::Master => {
                    world.run_master(Vec::<u64>::new()).unwrap();
                }
                Role::Mapper(_) => {
                    while world.next_split::<u64>().unwrap().is_some() {}
                    let mut send = world.sender::<String, u64>().with_combiner(GivesUp);
                    send.send("a".into(), 1).unwrap();
                    send.send("a".into(), 2).unwrap();
                    send.finish().unwrap();
                }
                Role::Reducer(_) => {
                    let mut recv = world.receiver::<String, u64>();
                    match recv.recv() {
                        Err(mpid::MpidError::Mpi(mpi_rt::MpiError::RankLost(lost))) => {
                            assert_eq!(lost.lost, vec![1]);
                        }
                        other => panic!("expected the mapper's loss, got {other:?}"),
                    }
                }
            }
        })
    });
    let panic = job.expect_err("the job must fail");
    let report = panic
        .downcast_ref::<String>()
        .expect("Universe::run reports failed ranks as a string");
    assert!(report.contains("rank 1: the combiner gave up"), "{report}");
    assert!(
        report.starts_with("rank(s) [1] panicked"),
        "the reducer fails cleanly: {report}"
    );
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "took {took:?}");
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

    /// The identity matrix on small inputs, over mapper and reducer counts:
    /// every epoch fits one block, handed off at its spill.
    #[test]
    fn frames_and_sender_stats_identical_across_thread_counts(
        pairs in arb_pairs(),
        mappers in 1usize..4,
        reducers in 1usize..3,
    ) {
        assert_shipped_alike_at_every_thread_count(&base_cfg(mappers, reducers), &pairs);
    }

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
