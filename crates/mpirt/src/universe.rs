//! Launching an MPI "universe": one OS thread per rank.
//!
//! The paper's MPI-D prototype runs each mapper/reducer/master as an MPI
//! process; here ranks are threads sharing a process, which keeps the whole
//! suite runnable as ordinary `cargo test` / `cargo run` targets while
//! exercising real concurrent message-passing.
//!
//! Every run family (`run`, `run_with`, `run_traced`, `try_run*`,
//! `run_verified`) launches the [`mpiverify`](crate::verify) checker by
//! default: a watchdog thread turns communication deadlocks into structured
//! per-rank reports instead of hangs, typed receives are signature-checked,
//! and teardown audits every mailbox for leaked traffic.
//! [`Universe::run_unchecked`] is the escape hatch.

use crate::comm::{Comm, InjectedCrash, WorldState};
use crate::lock;
use crate::matching::{Mailbox, PayloadSlot};
use crate::trace::RankTrace;
use crate::types::{MpiError, MpiResult, Rank};
use crate::verify::{Finding, RankLostReport, RanksFailure, Verifier, VerifyConfig, VerifyReport};
use std::cell::Cell;
use std::sync::Arc;

/// One planned rank crash: the rank panics (as if its process died) on its
/// `after_ops`-th point-to-point operation. Used by the fault-injection
/// subsystem to study failure propagation and checkpoint/restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFault {
    /// World rank to take down.
    pub rank: Rank,
    /// Crash on the `after_ops`-th p2p operation (0 = the very first send
    /// or receive the rank attempts).
    pub after_ops: u64,
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Payloads at or below this size are eagerly copied into the receiver's
    /// queue; larger payloads use the rendezvous protocol (sender blocks
    /// until matched). MPICH2's TCP netmod default is 64 KiB.
    pub eager_threshold: usize,
    /// Correctness-checker settings (enabled by default).
    pub verify: VerifyConfig,
    /// Planned rank crashes (empty by default). A run whose only failures
    /// are these injected crashes reports [`MpiError::RankLost`] instead of
    /// [`MpiError::RanksFailed`].
    pub fault_injection: Vec<RankFault>,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            eager_threshold: 64 * 1024,
            verify: VerifyConfig::default(),
            fault_injection: Vec::new(),
        }
    }
}

/// Entry point: spawn ranks and run an SPMD function.
pub struct Universe;

impl Universe {
    /// Run `f` on `n` ranks with the default configuration (checker on),
    /// returning each rank's result indexed by rank.
    ///
    /// # Panics
    /// Panics with a structured [`RanksFailure`] report if any rank panics,
    /// after all ranks have been joined.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_with(MpiConfig::default(), n, f)
    }

    /// Run with an explicit [`MpiConfig`].
    pub fn run_with<R, F>(cfg: MpiConfig, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        match Self::run_inner(cfg, n, None, &f) {
            Ok((results, _report)) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run with the correctness checker disabled — no watchdog thread, no
    /// wait-for graph, no signature checks, no teardown audit. The escape
    /// hatch for measurements where even the checker's bookkeeping on
    /// blocked waits is unwanted. A rank that panics still aborts the
    /// universe, so its peers' waits fail with [`MpiError::RankLost`]; but
    /// a rank that returns without sending what a peer waits for leaves
    /// that peer hanging, as in MPI (a checked run reports it as a
    /// [`MpiError::Deadlock`]).
    pub fn run_unchecked<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        let cfg = MpiConfig {
            verify: VerifyConfig::disabled(),
            ..MpiConfig::default()
        };
        Self::run_with(cfg, n, f)
    }

    /// Like [`Universe::run`], but failures (rank panics, checker aborts)
    /// come back as an [`MpiError`] instead of a panic.
    pub fn try_run<R, F>(n: usize, f: F) -> MpiResult<Vec<R>>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::try_run_with(MpiConfig::default(), n, f)
    }

    /// [`Universe::try_run`] with an explicit configuration.
    pub fn try_run_with<R, F>(cfg: MpiConfig, n: usize, f: F) -> MpiResult<Vec<R>>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_inner(cfg, n, None, &f).map(|(results, _)| results)
    }

    /// Run and also return the checker's [`VerifyReport`] (leaked messages,
    /// unmatched receives, type-signature findings).
    pub fn run_verified<R, F>(cfg: MpiConfig, n: usize, f: F) -> MpiResult<(Vec<R>, VerifyReport)>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_inner(cfg, n, None, &f)
    }

    /// Run with per-rank wall-clock tracing: every rank's MPI operations
    /// (and any MPI-D stage spans layered above them — see
    /// [`Comm::trace`]) are recorded against a universe-wide epoch and
    /// absorbed into `sink` as each rank's function returns. Rank `r`
    /// appears as process lane `r` named `rank-r`. Checker findings land in
    /// the sink as `mpi.verify` instant events.
    pub fn run_traced<R, F>(cfg: MpiConfig, n: usize, sink: obs::SharedTrace, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        for rank in 0..n {
            sink.set_process_name(rank as u32, format!("rank-{rank}"));
        }
        match Self::run_inner(cfg, n, Some((sink, obs::WallClock::start())), &f) {
            Ok((results, _report)) => results,
            Err(e) => panic!("{e}"),
        }
    }

    fn run_inner<R, F>(
        cfg: MpiConfig,
        n: usize,
        tracing: Option<(obs::SharedTrace, obs::WallClock)>,
        f: &F,
    ) -> MpiResult<(Vec<R>, VerifyReport)>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        assert!(n > 0, "universe needs at least one rank");
        let verifier = cfg.verify.enabled.then(|| Arc::new(Verifier::new(n)));
        let mut fault_after: Vec<Option<u64>> = vec![None; n];
        for f in &cfg.fault_injection {
            assert!(f.rank < n, "fault targets rank {} of {n}", f.rank);
            fault_after[f.rank] = Some(match fault_after[f.rank] {
                Some(prev) => prev.min(f.after_ops),
                None => f.after_ops,
            });
        }
        let world = WorldState::new(n, cfg.eager_threshold, verifier.clone(), fault_after);
        let watchdog = verifier.clone().map(|v| {
            let interval = cfg.verify.watchdog_interval;
            let world = world.clone();
            std::thread::Builder::new()
                .name("mpiverify-watchdog".into())
                .spawn(move || v.run_watchdog(interval, &world))
                .expect("spawn watchdog thread")
        });
        let tracing = &tracing;
        let results: Vec<Result<R, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let world = world.clone();
                    scope.spawn(move || {
                        // The guard closes the mailbox and marks the rank
                        // done in the checker even when `f` unwinds, and a
                        // rank that unwinds aborts the universe, so a
                        // panicking rank never leaves peers hanging.
                        let _guard = RankGuard {
                            world: world.clone(),
                            rank,
                        };
                        let trace = tracing
                            .as_ref()
                            .map(|(sink, clock)| RankTrace::new(rank as u32, *clock, sink.clone()));
                        let comm = world_comm(world.clone(), rank, trace.clone());
                        let out = f(&comm);
                        if let Some(t) = trace {
                            t.flush();
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(panic_message))
                .collect()
        });
        if let Some(v) = &verifier {
            v.request_shutdown();
        }
        if let Some(h) = watchdog {
            let _ = h.join();
        }

        // Finalize-time leak audit: everything still parked in a mailbox
        // after every rank has returned was lost traffic.
        let mut report = VerifyReport::default();
        if let Some(v) = &verifier {
            report.findings = v.take_findings();
            for (owner, mb) in world.mailboxes.iter().enumerate() {
                report.findings.extend(audit_mailbox(owner, mb));
            }
            if let Some((sink, clock)) = tracing {
                let ts = clock.now_ns();
                for finding in &report.findings {
                    let mut buf = obs::TraceBuffer::new(finding_lane(finding) as u32, 0);
                    buf.instant(format!("{finding}"), obs::names::CAT_MPI_VERIFY, ts);
                    sink.absorb(buf);
                }
            }
        }

        let failed: Vec<(Rank, String)> = results
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| r.as_ref().err().map(|msg| (rank, msg.clone())))
            .collect();
        if !failed.is_empty() {
            let snapshot = verifier
                .as_ref()
                .map(|v| v.failure_snapshot())
                .unwrap_or_default();
            // A run that lost ranks to the fault plan is a planned failure:
            // report *which ranks were lost*, not a bag of panics. Peers
            // that also unwound did so only because the loss propagated to
            // them (the universe's abort), so injection subsumes them.
            let injected = lock(&world.injected_crashes).clone();
            if !injected.is_empty() {
                return Err(MpiError::RankLost(Arc::new(RankLostReport {
                    lost: injected.into_iter().collect(),
                    ranks: snapshot,
                })));
            }
            return Err(MpiError::RanksFailed(Arc::new(RanksFailure {
                failed,
                snapshot,
            })));
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("no failures collected above"))
            .collect();
        Ok((results, report))
    }
}

/// Per-rank teardown ordering on both the normal and unwinding paths: a
/// rank that unwinds aborts the universe first, as `mpiexec` does when a
/// process dies; then the checker learns the rank is done (a panicking
/// rank captures the wait-for-graph snapshot for the failure report), and
/// its mailbox closes, so sends to it fail fast instead of hanging.
struct RankGuard {
    world: Arc<WorldState>,
    rank: Rank,
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        let panicked = std::thread::panicking();
        if panicked {
            self.world.rank_lost(self.rank);
        }
        if let Some(v) = &self.world.verifier {
            v.mark_done(self.rank, panicked);
        }
        self.world.mailboxes[self.rank].close();
    }
}

/// Best-effort string form of a rank's panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(c) = payload.downcast_ref::<InjectedCrash>() {
        format!("rank {} crashed (injected fault plan)", c.rank)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Convert one mailbox's leftovers into findings. Rendezvous envelopes
/// whose payload was claimed are complete transfers, not leaks.
fn audit_mailbox(owner: Rank, mb: &Mailbox) -> Vec<Finding> {
    let (unexpected, posted) = mb.drain_leftovers();
    let mut findings = Vec::new();
    for env in unexpected {
        let bytes = env.payload.len();
        match env.payload {
            PayloadSlot::Eager(_) => findings.push(Finding::LeakedEager {
                to: owner,
                src: env.src,
                tag: env.tag,
                bytes,
            }),
            PayloadSlot::Rendezvous(rv) => {
                if !rv.is_taken() {
                    findings.push(Finding::LeakedRendezvous {
                        to: owner,
                        src: env.src,
                        tag: env.tag,
                        bytes,
                    });
                }
            }
        }
    }
    for (src, tag) in posted {
        findings.push(Finding::UnmatchedRecv {
            rank: owner,
            src,
            tag,
        });
    }
    findings
}

/// The rank whose trace lane a finding belongs on.
fn finding_lane(f: &Finding) -> Rank {
    match f {
        Finding::LeakedEager { to, .. } | Finding::LeakedRendezvous { to, .. } => *to,
        Finding::UnmatchedRecv { rank, .. }
        | Finding::TypeMismatch { rank, .. }
        | Finding::ShutdownLeak { rank, .. } => *rank,
    }
}

fn world_comm(world: Arc<WorldState>, rank: Rank, trace: Option<Arc<RankTrace>>) -> Comm {
    Comm {
        world,
        rank,
        coll_seq: Cell::new(0),
        trace,
    }
}
