//! The staged driver: `mapred::run_mpid`'s rank closure, replayed through
//! the public `mpid` API with a span around each call into a layer.
//!
//! It must stay call-for-call equal to `mapred::engine::run_mpid_inner`;
//! the traced pass checks that by comparing its exact counts and its wall
//! time with the engine's (see `RealPath::traced`). Spans are per call and
//! per split, never per record.

use crate::spans::{self, Lane, Span};
use mapred::{InputFormat, MapReduceApp, MpidEngineConfig};
use mpi_rt::{MpiConfig, Universe};
use mpid::combine::FnCombiner;
use mpid::partition::Partitioner;
use mpid::{
    BlockPool, MpidConfig, MpidResult, MpidWorld, PoolStats, ReceiverStats, Role, SenderStats,
};
use std::sync::Arc;
use std::time::Instant;

/// Root span of every lane: the whole rank closure.
pub const RANK: &str = "rank";
pub const INIT: &str = "mpid.init";
pub const RUN_MASTER: &str = "mpid.run_master";
pub const COLLECT_STATS: &str = "mpid.collect_stats";
pub const SENDER: &str = "mpid.sender";
pub const NEXT_SPLIT: &str = "mpid.next_split";
/// Map function plus `MPI_D_Send` over one split.
pub const MAP_SPLIT: &str = "map+send";
pub const FINISH: &str = "mpid.sender.finish";
pub const REPORT_STATS: &str = "mpid.report_stats";
/// Receiver construction; with a reduce budget also the external ingest.
pub const RECEIVER: &str = "mpid.receiver";
pub const FIRST_RECV: &str = "mpid.recv.first";
/// Every later `recv` plus the reduce function.
pub const DRAIN: &str = "recv+reduce";
/// Dropping the receiver: frees the received frames and the merge state.
pub const RELEASE: &str = "mpid.receiver.drop";
pub const FINALIZE: &str = "mpid.finalize";

/// What one staged job produced.
pub struct StagedJob<K, V> {
    pub output: Vec<(K, V)>,
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub sender: SenderStats,
    /// Summed over the reducers.
    pub receiver: ReceiverStats,
    /// Runs the reducers spilled to disk (0 without a reduce budget).
    pub spilled_runs: u64,
    pub universe_msgs: u64,
    pub universe_bytes: u64,
    pub pool: Option<PoolStats>,
}

enum RankOut<K, V> {
    Master(SenderStats),
    Mapper,
    Reducer {
        out: Vec<(K, V)>,
        stats: ReceiverStats,
        spilled_runs: u64,
    },
}

struct AppPartitioner<A>(Arc<A>);

impl<A: MapReduceApp> Partitioner<A::MidKey> for AppPartitioner<A> {
    fn partition(&self, key: &A::MidKey, n_reducers: usize) -> usize {
        self.0.partition(key, n_reducers)
    }
}

/// `MpidEngineConfig::mpid()` is private to `mapred`; this is its copy.
fn mpid_config(cfg: &MpidEngineConfig, pool: Option<Arc<BlockPool>>) -> MpidConfig {
    MpidConfig {
        n_mappers: cfg.n_mappers,
        n_reducers: cfg.n_reducers,
        spill_threshold_bytes: cfg.spill_threshold_bytes,
        frame_bytes: cfg.frame_bytes,
        sort_keys: false,
        sort_values: false,
        use_isend: cfg.use_isend,
        compress: cfg.compress,
        threads: cfg.threads,
        mem_budget: cfg.mem_budget,
        pool,
        shuffle: cfg.shuffle,
    }
}

/// Run `app` over `input` like `mapred::run_mpid`, recording spans.
///
/// # Panics
/// Panics where the engine panics: on any MPI-D error in any rank.
pub fn run_staged<A, I>(
    cfg: &MpidEngineConfig,
    app: Arc<A>,
    input: Arc<I>,
    job_id: u32,
) -> StagedJob<A::OutKey, A::OutVal>
where
    A: MapReduceApp,
    I: InputFormat<Key = A::InKey, Val = A::InVal>,
{
    let pool = cfg.mem_budget.map(BlockPool::new);
    let mpid_cfg = mpid_config(cfg, pool.clone());
    let n_ranks = mpid_cfg.required_ranks();
    let timeout = cfg.recv_timeout;
    let reduce_budget = cfg.reduce_budget_bytes;
    let splits: Vec<u64> = (0..input.n_splits() as u64).collect();
    let mpi_cfg = MpiConfig {
        eager_threshold: cfg.eager_threshold,
        verify: if cfg.verify {
            mpi_rt::VerifyConfig::default()
        } else {
            mpi_rt::VerifyConfig::disabled()
        },
        ..MpiConfig::default()
    };

    let epoch = Instant::now();
    let rank_fn = move |comm: &mpi_rt::Comm| {
        let mut lane = Lane::new(epoch, comm.rank() as u32, job_id);
        lane.enter(RANK);
        let world = lane.span(INIT, || {
            MpidWorld::init(comm, mpid_cfg.clone()).expect("valid config")
        });
        let result = match world.role() {
            Role::Master => {
                lane.span(RUN_MASTER, || world.run_master(splits.clone()))
                    .expect("master failed");
                let sender = lane
                    .span(COLLECT_STATS, || world.collect_stats())
                    .expect("stats gather failed");
                RankOut::Master(sender)
            }
            Role::Mapper(_) => {
                let mut sender = lane.span(SENDER, || {
                    let s = world
                        .sender::<A::MidKey, A::MidVal>()
                        .with_partitioner(AppPartitioner(app.clone()));
                    match app.combine() {
                        Some(c) => s.with_combiner(FnCombiner(c)),
                        None => s,
                    }
                });
                while let Some(split) = lane
                    .span(NEXT_SPLIT, || world.next_split::<u64>())
                    .expect("split fetch")
                {
                    lane.span(MAP_SPLIT, || {
                        for (k, v) in input.records(split as usize) {
                            let mut err = None;
                            app.map(k, v, &mut |mk, mv| {
                                if err.is_none() {
                                    if let Err(e) = sender.send(mk, mv) {
                                        err = Some(e);
                                    }
                                }
                            });
                            if let Some(e) = err {
                                panic!("MPI_D_Send failed: {e}");
                            }
                        }
                    });
                }
                let stats = lane
                    .span(FINISH, || sender.finish())
                    .expect("finish failed");
                lane.span(REPORT_STATS, || world.report_stats(&stats))
                    .expect("stats report failed");
                RankOut::Mapper
            }
            Role::Reducer(_) => {
                lane.enter(RECEIVER);
                let recv = world
                    .receiver::<A::MidKey, A::MidVal>()
                    .with_timeout(timeout);
                if let Some(budget) = reduce_budget {
                    let mut ext = recv
                        .into_external(budget, std::env::temp_dir())
                        .expect("external ingest failed");
                    lane.exit();
                    let out = drain_groups(&mut lane, &*app, || ext.recv());
                    let stats = ext.stats().clone();
                    let spilled_runs = ext.spilled_runs() as u64;
                    lane.span(RELEASE, || drop(ext));
                    RankOut::Reducer {
                        out,
                        stats,
                        spilled_runs,
                    }
                } else {
                    lane.exit();
                    let mut recv = recv;
                    let out = drain_groups(&mut lane, &*app, || recv.recv());
                    let stats = recv.stats().clone();
                    lane.span(RELEASE, || drop(recv));
                    RankOut::Reducer {
                        out,
                        stats,
                        spilled_runs: 0,
                    }
                }
            }
        };
        let traffic = (comm.universe_msgs_sent(), comm.universe_bytes_sent());
        lane.span(FINALIZE, || world.finalize())
            .expect("finalize failed");
        lane.exit();
        (result, traffic, lane.finish())
    };
    let results = Universe::run_with(mpi_cfg, n_ranks, rank_fn);
    let wall_s = epoch.elapsed().as_secs_f64();

    let mut job = StagedJob {
        output: Vec::new(),
        wall_s,
        spans: Vec::new(),
        sender: SenderStats::default(),
        receiver: ReceiverStats::default(),
        spilled_runs: 0,
        universe_msgs: 0,
        universe_bytes: 0,
        pool: pool.map(|p| p.stats()),
    };
    let mut lanes = Vec::with_capacity(n_ranks);
    for (result, (msgs, bytes), lane) in results {
        job.universe_msgs = job.universe_msgs.max(msgs);
        job.universe_bytes = job.universe_bytes.max(bytes);
        lanes.push(lane);
        match result {
            RankOut::Master(sender) => job.sender = sender,
            RankOut::Mapper => {}
            RankOut::Reducer {
                out,
                stats,
                spilled_runs,
            } => {
                job.output.extend(out);
                job.receiver.frames += stats.frames;
                job.receiver.bytes_received += stats.bytes_received;
                job.receiver.groups_in += stats.groups_in;
                job.receiver.distinct_keys += stats.distinct_keys;
                job.spilled_runs += spilled_runs;
            }
        }
    }
    job.spans = spans::merge_lanes(lanes);
    job
}

/// The reducer loop: the first `recv` (which ingests and merges everything)
/// as one span, the remaining `recv`s and every `reduce` as another.
fn drain_groups<A: MapReduceApp>(
    lane: &mut Lane,
    app: &A,
    mut next_group: impl FnMut() -> MpidResult<Option<(A::MidKey, Vec<A::MidVal>)>>,
) -> Vec<(A::OutKey, A::OutVal)> {
    let mut out = Vec::new();
    let mut group = lane
        .span(FIRST_RECV, &mut next_group)
        .expect("MPI_D_Recv failed");
    lane.enter(DRAIN);
    while let Some((k, vs)) = group {
        app.reduce(k, vs, &mut |ok, ov| out.push((ok, ov)));
        group = next_group().expect("MPI_D_Recv failed");
    }
    lane.exit();
    out
}

/// Where one staged job's wall time went, in seconds. A `_s` figure of a
/// role is the maximum over that role's lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Job start (before the ranks spawn) to the last `finish()` returning.
    pub map_phase_s: f64,
    /// Last `finish()` returning to the last reducer done.
    pub reduce_tail_s: f64,
    pub master_serve_s: f64,
    pub split_wait_s: f64,
    pub send_loop_s: f64,
    pub finish_s: f64,
    /// Receiver created to its first `recv` returning.
    pub first_recv_s: f64,
    /// Last `finish()` returning to the first `recv` returning.
    pub merge_tail_s: f64,
    pub drain_s: f64,
    pub finalize_s: f64,
    /// Smallest share of any lane's rank span that its child spans cover.
    pub span_coverage: f64,
}

impl Phases {
    pub fn of(spans: &[Span]) -> Phases {
        let secs = |ns: u64| ns as f64 / 1e9;
        let n_lanes = spans.iter().map(|s| s.lane + 1).max().unwrap_or(0);
        // Per lane: (sum of durations, latest end) of the spans named `name`.
        let per_lane = |name: &str| -> Vec<(u64, u64)> {
            let mut v = vec![(0u64, 0u64); n_lanes as usize];
            for s in spans.iter().filter(|s| s.name == name) {
                let e = &mut v[s.lane as usize];
                e.0 += s.dur_ns();
                e.1 = e.1.max(s.end_ns);
            }
            v
        };
        let max_sum = |name: &str| per_lane(name).iter().map(|e| e.0).max().unwrap_or(0);
        let max_end = |name: &str| per_lane(name).iter().map(|e| e.1).max().unwrap_or(0);

        let last_finish = max_end(FINISH);
        let first_recv_end = max_end(FIRST_RECV);
        let receiver_start = |lane: u32| {
            spans
                .iter()
                .find(|s| s.lane == lane && s.name == RECEIVER)
                .map_or(0, |s| s.start_ns)
        };
        let first_recv = spans
            .iter()
            .filter(|s| s.name == FIRST_RECV)
            .map(|s| s.end_ns - receiver_start(s.lane))
            .max()
            .unwrap_or(0);
        let span_coverage = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(id, _)| spans::coverage(spans, id))
            .fold(1.0, f64::min);
        Phases {
            map_phase_s: secs(last_finish),
            reduce_tail_s: secs(max_end(DRAIN).saturating_sub(last_finish)),
            master_serve_s: secs(max_sum(RUN_MASTER)),
            split_wait_s: secs(max_sum(NEXT_SPLIT)),
            send_loop_s: secs(max_sum(MAP_SPLIT)),
            finish_s: secs(max_sum(FINISH)),
            first_recv_s: secs(first_recv),
            merge_tail_s: secs(first_recv_end.saturating_sub(last_finish)),
            drain_s: secs(max_sum(DRAIN)),
            finalize_s: secs(max_sum(FINALIZE)),
            span_coverage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, lane: u32, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: (name != RANK).then_some(parent),
            lane,
            job_id: 0,
        }
    }

    #[test]
    fn phases_take_the_slowest_lane_of_each_role() {
        let s = 1_000_000_000;
        let spans = vec![
            // Mapper lane 1: two splits, finishes at 6 s.
            span(RANK, 1, 0, 10 * s, 0),
            span(NEXT_SPLIT, 1, 0, s, 0),
            span(MAP_SPLIT, 1, s, 3 * s, 0),
            span(NEXT_SPLIT, 1, 3 * s, 4 * s, 0),
            span(MAP_SPLIT, 1, 4 * s, 5 * s, 0),
            span(FINISH, 1, 5 * s, 6 * s, 0),
            span(FINALIZE, 1, 6 * s, 10 * s, 0),
            // Mapper lane 2: one long split, finishes at 7 s.
            span(RANK, 2, 0, 10 * s, 7),
            span(MAP_SPLIT, 2, 0, 5 * s, 7),
            span(FINISH, 2, 5 * s, 7 * s, 7),
            span(FINALIZE, 2, 7 * s, 10 * s, 7),
            // Reducer lane 3: half of its rank span is uncovered.
            span(RANK, 3, 0, 10 * s, 11),
            span(RECEIVER, 3, s, s, 11),
            span(FIRST_RECV, 3, 4 * s, 8 * s, 11),
            span(DRAIN, 3, 8 * s, 9 * s, 11),
        ];
        let p = Phases::of(&spans);
        assert_eq!(p.map_phase_s, 7.0);
        assert_eq!(p.reduce_tail_s, 2.0);
        assert_eq!(p.split_wait_s, 2.0);
        assert_eq!(p.send_loop_s, 5.0);
        assert_eq!(p.finish_s, 2.0);
        assert_eq!(p.first_recv_s, 7.0);
        assert_eq!(p.merge_tail_s, 1.0);
        assert_eq!(p.drain_s, 1.0);
        assert_eq!(p.finalize_s, 4.0);
        assert!((p.span_coverage - 0.5).abs() < 1e-12);
    }
}
