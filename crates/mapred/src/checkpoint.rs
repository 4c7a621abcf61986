//! Barrier-checkpoint/restart execution of MPI-D jobs — the opt-in fault
//! tolerance the paper's MPI-D prototype lacks.
//!
//! Plain MPI-D ([`crate::engine::run_mpid`]) has Hadoop's programming model
//! but MPI's failure model: lose one rank and the whole job is lost
//! ([`MpiError::RankLost`]). This module recovers Hadoop-style resilience by
//! splitting the job into **supersteps** of `interval_splits` input splits.
//! Each superstep runs on a fresh MPI universe; at the barrier between
//! supersteps every reducer's accumulated partition buffer is snapshotted
//! into an in-memory checkpoint (the stand-in for a reliable store). When a
//! superstep dies to a rank loss, it is simply replayed from the last
//! checkpoint — completed supersteps are never re-run.
//!
//! The final output is the same reduce over the same per-reducer key groups
//! as a crash-free [`run_mpid`](crate::engine::run_mpid) run: partitioning
//! is deterministic, so each key accumulates in the same reducer's
//! checkpoint, ascending key order per reducer is preserved by the
//! `BTreeMap`, and value multisets are identical (tested in
//! `crates/mpirt/tests/faults.rs`).

use crate::api::{InputFormat, MapReduceApp};
use crate::engine::{mapper_step, master_step, MpidEngineConfig};
use mpi_rt::{MpiConfig, MpiError, RankFault, Universe, VerifyConfig};
use mpid::{MpidWorld, Role};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one checkpointed run did (restart accounting).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Supersteps executed successfully (restarted attempts not counted).
    pub supersteps: u64,
    /// Supersteps replayed after a rank loss.
    pub restarts: u64,
    /// Intermediate values sitting in checkpoints at the final barrier.
    pub checkpointed_values: u64,
}

/// The reduced output pairs of a checkpointed run.
type Output<A> = Vec<(<A as MapReduceApp>::OutKey, <A as MapReduceApp>::OutVal)>;

/// One reducer's raw key groups for a superstep (the unit of checkpointing).
type Groups<A> = Vec<(
    <A as MapReduceApp>::MidKey,
    Vec<<A as MapReduceApp>::MidVal>,
)>;

/// One rank's contribution to a superstep.
enum StepResult<K, V> {
    Driver,
    /// The rank bailed out because a peer was lost mid-superstep (its own
    /// operation returned `RankLost`/`PeerGone`). The whole superstep is
    /// doomed and will replay; bailing structurally instead of panicking
    /// keeps the planned recovery path free of stderr backtrace noise.
    Lost,
    /// Reducer index and its raw key groups for this superstep.
    Reducer(usize, Vec<(K, Vec<V>)>),
}

/// True when `e` is the propagation of a lost peer into this rank: the
/// universe's abort (`RankLost`), or the closed-mailbox error of a send to
/// a peer that has ended.
fn is_loss_propagation(e: &mpid::MpidError) -> bool {
    matches!(
        e,
        mpid::MpidError::Mpi(MpiError::RankLost(_))
            | mpid::MpidError::Mpi(MpiError::PeerGone { .. })
    )
}

/// Run `app` over `input` with barrier-checkpoint/restart fault tolerance.
///
/// `interval_splits` input splits are processed per superstep (clamped to
/// at least 1). `faults` are injected into the universes *until the first
/// rank loss* — the lost rank is then "restarted" healthy, modeling a
/// process respawn, and the interrupted superstep replays from the last
/// checkpoint. A lost rank aborts its universe with or without the
/// mpiverify checker; the checker is always on here, regardless of
/// `cfg.verify`, so that a superstep that hangs for any other reason is a
/// `Deadlock` report rather than a hang.
///
/// # Panics
/// Panics if a superstep fails for any reason other than a planned rank
/// loss, or if a rank loss occurs with no fault plan left (impossible under
/// injection-only crashes).
pub fn run_mpid_checkpointed<A, I>(
    cfg: &MpidEngineConfig,
    interval_splits: usize,
    faults: Vec<RankFault>,
    app: Arc<A>,
    input: Arc<I>,
) -> (Output<A>, CheckpointStats)
where
    A: MapReduceApp,
    I: InputFormat<Key = A::InKey, Val = A::InVal>,
{
    let interval = interval_splits.max(1);
    let all_splits: Vec<u64> = (0..input.n_splits() as u64).collect();
    let mut pending_faults = faults;
    let mut stats = CheckpointStats::default();
    // One checkpoint per reducer: key → accumulated values across all
    // completed supersteps.
    let mut checkpoints: Vec<BTreeMap<A::MidKey, Vec<A::MidVal>>> =
        (0..cfg.n_reducers).map(|_| BTreeMap::new()).collect();

    for chunk in all_splits.chunks(interval) {
        loop {
            match run_superstep(cfg, &pending_faults, chunk, &app, &input) {
                Ok(step) => {
                    for (reducer, groups) in step {
                        let ckpt = &mut checkpoints[reducer];
                        for (k, vs) in groups {
                            stats.checkpointed_values += vs.len() as u64;
                            ckpt.entry(k).or_default().extend(vs);
                        }
                    }
                    stats.supersteps += 1;
                    break;
                }
                Err(MpiError::RankLost(report)) => {
                    assert!(
                        !pending_faults.is_empty(),
                        "rank loss without a fault plan: {report}"
                    );
                    // The crashed rank is restarted healthy; replay the
                    // superstep from the checkpoint barrier.
                    pending_faults.clear();
                    stats.restarts += 1;
                }
                Err(e) => panic!("checkpointed superstep failed: {e}"),
            }
        }
    }

    let mut output = Vec::new();
    for ckpt in checkpoints {
        for (k, vs) in ckpt {
            app.reduce(k, vs, &mut |ok, ov| output.push((ok, ov)));
        }
    }
    (output, stats)
}

/// Run one superstep universe over `chunk` splits; reducers return their
/// raw key groups instead of reducing, so the driver can checkpoint them.
fn run_superstep<A, I>(
    cfg: &MpidEngineConfig,
    faults: &[RankFault],
    chunk: &[u64],
    app: &Arc<A>,
    input: &Arc<I>,
) -> Result<Vec<(usize, Groups<A>)>, MpiError>
where
    A: MapReduceApp,
    I: InputFormat<Key = A::InKey, Val = A::InVal>,
{
    let mpid_cfg = cfg.mpid();
    let n_ranks = mpid_cfg.required_ranks();
    let splits = chunk.to_vec();
    let app = app.clone();
    let input = input.clone();

    let results = Universe::try_run_with(
        MpiConfig {
            eager_threshold: cfg.eager_threshold,
            // A lost rank aborts the universe either way; the checker
            // turns any other hang into a Deadlock report.
            verify: VerifyConfig::default(),
            fault_injection: faults.to_vec(),
        },
        n_ranks,
        move |comm| {
            let world = MpidWorld::init(comm, mpid_cfg.clone()).expect("valid config");
            let result = match world.role() {
                Role::Master => match master_step(&world, &splits) {
                    Ok(_) => StepResult::Driver,
                    Err(e) if is_loss_propagation(&e) => StepResult::Lost,
                    Err(e) => panic!("master failed: {e}"),
                },
                Role::Mapper(_) => match mapper_step(&world, &app, &input) {
                    Ok(()) => StepResult::Driver,
                    Err(e) if is_loss_propagation(&e) => StepResult::Lost,
                    Err(e) => panic!("mapper failed: {e}"),
                },
                Role::Reducer(r) => match reducer_step::<A>(&world, cfg) {
                    Ok(groups) => StepResult::Reducer(r, groups),
                    Err(e) if is_loss_propagation(&e) => StepResult::Lost,
                    Err(e) => panic!("MPI_D_Recv failed: {e}"),
                },
            };
            match world.finalize() {
                Ok(()) => result,
                Err(e) if is_loss_propagation(&e) => StepResult::Lost,
                Err(e) => panic!("finalize failed: {e}"),
            }
        },
    )?;

    // A rank may only bail when a peer is lost, and a lost peer always
    // turns the whole universe into Err(RankLost) above — so a Lost marker
    // in an Ok result set means the engine broke an invariant.
    assert!(
        !results.iter().any(|r| matches!(r, StepResult::Lost)),
        "a rank observed a peer loss but the universe completed"
    );
    Ok(results
        .into_iter()
        .filter_map(|r| match r {
            StepResult::Driver | StepResult::Lost => None,
            StepResult::Reducer(i, groups) => Some((i, groups)),
        })
        .collect())
}

/// Reducer leg: drain `MPI_D_Recv` groups raw (the driver checkpoints them).
fn reducer_step<A: MapReduceApp>(
    world: &MpidWorld,
    cfg: &MpidEngineConfig,
) -> Result<Groups<A>, mpid::MpidError> {
    cfg.receiver::<A::MidKey, A::MidVal>(world)?.recv_all()
}
