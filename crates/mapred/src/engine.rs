//! Real distributed execution over MPI-D: rank 0 master, mapper ranks,
//! reducer ranks — the paper's simulation-system process layout, running
//! actual bytes through `mpid` and `mpi-rt`.

use crate::api::{InputFormat, MapReduceApp};
use mpi_rt::{MpiConfig, MpiError, Universe};
use mpid::combine::FnCombiner;
use mpid::partition::Partitioner;
use mpid::{Key, MpidConfig, MpidReceiver, MpidResult, MpidWorld, Role, Value};
use std::sync::Arc;
use std::time::Duration;

/// Engine configuration: process layout plus MPI-D pipeline knobs.
#[derive(Debug, Clone)]
pub struct MpidEngineConfig {
    /// Mapper ranks.
    pub n_mappers: usize,
    /// Reducer ranks.
    pub n_reducers: usize,
    /// Mapper-side spill threshold, bytes.
    pub spill_threshold_bytes: usize,
    /// Realigned frame target size, bytes.
    pub frame_bytes: usize,
    /// Inert: nothing reads it (see [`mpid::MpidConfig::use_isend`]). Kept
    /// only because callers outside the workspace name it (ROADMAP item
    /// 12).
    pub use_isend: bool,
    /// LZ-compress realigned frames on the wire.
    pub compress: bool,
    /// Eager/rendezvous switch-over in the MPI runtime.
    pub eager_threshold: usize,
    /// Opt-in bound on how long a reducer waits for the next frame
    /// ([`mpid::MpidReceiver::with_timeout`]); `None`, the default, waits
    /// untimed. A dead rank needs no timeout: it aborts the job, and every
    /// reducer's wait fails at once with `mpi_rt::MpiError::RankLost`.
    pub recv_timeout: Option<Duration>,
    /// When set, reducers — of plain and checkpointed runs alike — group
    /// through the bounded-memory external merge
    /// ([`mpid::MpidReceiver::into_external`]) with this in-memory byte
    /// budget instead of holding the whole key space resident.
    pub reduce_budget_bytes: Option<usize>,
    /// Passed through as [`mpid::MpidConfig::threads`] (documented there):
    /// at 2 or more each mapper's sender hashes and folds its pairs on a
    /// second thread, which pays when a mapper rank has a core to spare.
    pub threads: usize,
    /// Job-wide byte budget for MPI-D buffering. One [`mpid::BlockPool`]
    /// is shared across every rank of the job; sender tables, in-node
    /// leaders' stashes and receiver frame windows charge it, and the
    /// pool's high-water mark is reported in [`JobOutput::pool_stats`].
    pub mem_budget: Option<usize>,
    /// Run the universe under the mpiverify correctness checker (deadlock
    /// watchdog, typed-receive signature checks, teardown leak audit). On by
    /// default; observation-only, so results are identical either way.
    pub verify: bool,
    /// How spilled frames travel to the reducers (see [`mpid::shuffle`]):
    /// direct ship or per-host in-node combining. Grouped output is
    /// identical for every setting.
    pub shuffle: mpid::ShuffleKind,
}

impl Default for MpidEngineConfig {
    fn default() -> Self {
        MpidEngineConfig {
            n_mappers: 2,
            n_reducers: 1,
            spill_threshold_bytes: 4 * 1024 * 1024,
            frame_bytes: 512 * 1024,
            use_isend: false,
            compress: false,
            eager_threshold: 64 * 1024,
            recv_timeout: None,
            reduce_budget_bytes: None,
            threads: 1,
            mem_budget: None,
            verify: true,
            shuffle: mpid::ShuffleKind::Baseline,
        }
    }
}

impl MpidEngineConfig {
    /// `m` mappers, `r` reducers, defaults elsewhere.
    pub fn with_workers(m: usize, r: usize) -> Self {
        MpidEngineConfig {
            n_mappers: m,
            n_reducers: r,
            ..Default::default()
        }
    }

    pub(crate) fn mpid(&self) -> MpidConfig {
        MpidConfig {
            n_mappers: self.n_mappers,
            n_reducers: self.n_reducers,
            spill_threshold_bytes: self.spill_threshold_bytes,
            frame_bytes: self.frame_bytes,
            compress: self.compress,
            threads: self.threads,
            mem_budget: self.mem_budget,
            shuffle: self.shuffle,
            ..MpidConfig::default()
        }
    }

    /// A reducer's `MPI_D_Recv` handle, built the one way every engine
    /// builds it: the opt-in [`recv_timeout`](Self::recv_timeout), and the
    /// bounded drain when [`reduce_budget_bytes`](Self::reduce_budget_bytes)
    /// is set.
    pub(crate) fn receiver<'w, K: Key, V: Value>(
        &self,
        world: &MpidWorld<'w>,
    ) -> MpidResult<MpidReceiver<'w, K, V>> {
        let recv = world.receiver().with_timeout(self.recv_timeout);
        match self.reduce_budget_bytes {
            Some(budget) => recv.into_external(budget, std::env::temp_dir()),
            None => Ok(recv),
        }
    }
}

/// Result of a distributed job.
#[derive(Debug, Clone)]
pub struct JobOutput<K, V> {
    /// Output pairs, merged across reducers, ascending by intermediate key
    /// within each reducer.
    pub output: Vec<(K, V)>,
    /// Mapper statistics summed over all mappers.
    pub sender_stats: mpid::SenderStats,
    /// Splits assigned by the master.
    pub master_stats: mpid::MasterStats,
    /// Total messages the MPI universe carried.
    pub universe_msgs: u64,
    /// Total payload bytes the MPI universe carried.
    pub universe_bytes: u64,
    /// Final snapshot of the job-wide block pool, when
    /// [`MpidEngineConfig::mem_budget`] was set: the `high_water` field is
    /// what the memory CI gate asserts against the budget.
    pub pool_stats: Option<mpid::PoolStats>,
}

enum RankResult<K, V> {
    Master(mpid::MasterStats, mpid::SenderStats),
    Mapper,
    Reducer(Vec<(K, V)>),
    /// The leg stopped at [`MpiError::RankLost`]: another rank died, and
    /// the universe reports that rank's own failure.
    Lost,
}

/// A leg's value, or `None` when it failed only because another rank was
/// lost — the universe then reports that rank's own failure, and a second
/// report of the same cause would only bury it. Any other error panics,
/// prefixed with `what`.
fn unless_lost<T>(res: MpidResult<T>, what: &str) -> Option<T> {
    match res {
        Ok(t) => Some(t),
        Err(mpid::MpidError::Mpi(MpiError::RankLost(_))) => None,
        Err(e) => panic!("{what}: {e}"),
    }
}

/// The reducer leg of [`run_mpid`]: drain `MPI_D_Recv` into `reduce`.
fn reducer_step<A: MapReduceApp>(
    world: &MpidWorld,
    cfg: &MpidEngineConfig,
    app: &A,
) -> MpidResult<Vec<(A::OutKey, A::OutVal)>> {
    let mut recv = cfg.receiver::<A::MidKey, A::MidVal>(world)?;
    let mut out = Vec::new();
    while let Some((k, vs)) = recv.recv()? {
        app.reduce(k, vs, &mut |ok, ov| out.push((ok, ov)));
    }
    Ok(out)
}

/// Adapter exposing the application's `partition` method as an MPI-D
/// [`Partitioner`].
pub(crate) struct AppPartitioner<A>(pub(crate) Arc<A>);

impl<A: MapReduceApp> Partitioner<A::MidKey> for AppPartitioner<A> {
    fn partition(&self, key: &A::MidKey, n_reducers: usize) -> usize {
        self.0.partition(key, n_reducers)
    }
}

/// Master leg: hand out `splits`, then gather every mapper's pipeline
/// counters over MPI (the STATS leg of the wire protocol).
pub(crate) fn master_step(
    world: &MpidWorld,
    splits: &[u64],
) -> MpidResult<(mpid::MasterStats, mpid::SenderStats)> {
    let master = world.run_master(splits.to_vec())?;
    Ok((master, world.collect_stats()?))
}

/// Mapper leg: pull splits, map each record, `MPI_D_Send` the pairs, then
/// finish the sender and report its stats to the master.
pub(crate) fn mapper_step<A, I>(world: &MpidWorld, app: &Arc<A>, input: &Arc<I>) -> MpidResult<()>
where
    A: MapReduceApp,
    I: InputFormat<Key = A::InKey, Val = A::InVal>,
{
    let mut sender = world
        .sender::<A::MidKey, A::MidVal>()
        .with_partitioner(AppPartitioner(app.clone()));
    if let Some(c) = app.combine() {
        sender = sender.with_combiner(FnCombiner(c));
    }
    while let Some(split) = world.next_split::<u64>()? {
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
                return Err(e);
            }
        }
    }
    let stats = sender.finish()?;
    world.report_stats(&stats)
}

/// Run `app` over `input` on a fresh MPI universe (1 master +
/// `n_mappers` + `n_reducers` ranks as threads).
pub fn run_mpid<A, I>(
    cfg: &MpidEngineConfig,
    app: Arc<A>,
    input: Arc<I>,
) -> JobOutput<A::OutKey, A::OutVal>
where
    A: MapReduceApp,
    I: InputFormat<Key = A::InKey, Val = A::InVal>,
{
    run_mpid_inner(cfg, app, input, None)
}

/// Like [`run_mpid`], but with wall-clock tracing: every rank records its
/// MPI operations and MPI-D pipeline stages (`mpid.stage` spans plus
/// `mpid.mem.*` memory counters) into `sink`. Timestamps are real
/// nanoseconds — unlike the simulators they vary run to run, but the
/// counter *values* and span structure are deterministic for a fixed
/// config and input. The exception is `mpid.mem.frame_pool_{hits,misses}`:
/// how many frame buffers a sender found on the process's free list
/// depends on what earlier jobs left there.
pub fn run_mpid_traced<A, I>(
    cfg: &MpidEngineConfig,
    app: Arc<A>,
    input: Arc<I>,
    sink: obs::SharedTrace,
) -> JobOutput<A::OutKey, A::OutVal>
where
    A: MapReduceApp,
    I: InputFormat<Key = A::InKey, Val = A::InVal>,
{
    run_mpid_inner(cfg, app, input, Some(sink))
}

fn run_mpid_inner<A, I>(
    cfg: &MpidEngineConfig,
    app: Arc<A>,
    input: Arc<I>,
    sink: Option<obs::SharedTrace>,
) -> JobOutput<A::OutKey, A::OutVal>
where
    A: MapReduceApp,
    I: InputFormat<Key = A::InKey, Val = A::InVal>,
{
    let mut mpid_cfg = cfg.mpid();
    // One pool Arc created up front and cloned into every rank closure, so
    // the budget bounds the *job's* aggregate buffering (per-rank pools
    // would each get the full budget).
    let pool = cfg.mem_budget.map(mpid::BlockPool::new);
    mpid_cfg.pool = pool.clone();
    let n_ranks = mpid_cfg.required_ranks();
    let splits: Vec<u64> = (0..input.n_splits() as u64).collect();
    let mut universe_msgs = 0;
    let mut universe_bytes = 0;

    let mpi_cfg = MpiConfig {
        eager_threshold: cfg.eager_threshold,
        verify: if cfg.verify {
            mpi_rt::VerifyConfig::default()
        } else {
            mpi_rt::VerifyConfig::disabled()
        },
        ..MpiConfig::default()
    };
    let rank_fn = move |comm: &mpi_rt::Comm| {
        let world = MpidWorld::init(comm, mpid_cfg.clone()).expect("valid config");
        let result = match world.role() {
            Role::Master => unless_lost(master_step(&world, &splits), "master failed")
                .map(|(master, sender)| RankResult::Master(master, sender)),
            Role::Mapper(_) => unless_lost(mapper_step(&world, &app, &input), "mapper failed")
                .map(|()| RankResult::Mapper),
            Role::Reducer(_) => unless_lost(reducer_step(&world, cfg, &*app), "MPI_D_Recv failed")
                .map(RankResult::Reducer),
        };
        let result = match (result, unless_lost(world.finalize(), "finalize failed")) {
            (Some(result), Some(())) => result,
            _ => RankResult::Lost,
        };
        // Read after the finalize barrier, when this rank has sent all of
        // its messages: the last rank to read sees every rank's, so the max
        // over ranks is the job's exact total.
        let stats = (comm.universe_msgs_sent(), comm.universe_bytes_sent());
        (result, stats)
    };
    let results = match sink {
        Some(s) => Universe::run_traced(mpi_cfg, n_ranks, s, rank_fn),
        None => Universe::run_with(mpi_cfg, n_ranks, rank_fn),
    };

    let mut output = Vec::new();
    let mut sender_stats = mpid::SenderStats::default();
    let mut master_stats = mpid::MasterStats::default();
    for (r, (msgs, bytes)) in results {
        universe_msgs = universe_msgs.max(msgs);
        universe_bytes = universe_bytes.max(bytes);
        match r {
            RankResult::Master(m, s) => {
                master_stats = m;
                sender_stats = s;
            }
            RankResult::Mapper => {}
            RankResult::Reducer(o) => output.extend(o),
            RankResult::Lost => unreachable!("a rank was lost, but the universe completed"),
        }
    }
    JobOutput {
        output,
        sender_stats,
        master_stats,
        universe_msgs,
        universe_bytes,
        pool_stats: pool.map(|p| p.stats()),
    }
}
