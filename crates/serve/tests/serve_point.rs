//! One serving grid point, pinned exactly: the heavy-load quick point
//! (3 racks × 8 hosts at 4:1 oversubscription, 16 jobs from seed `0x5E12`,
//! fair-share, no faults) replayed on each stack. The serving simulation is
//! a deterministic function of (config, stream, scheduler, backend), so the
//! rendered summary and the stream metrics hold to the last digit on every
//! machine; a change to either stack's serve plan, the scheduler or the
//! arrival generator shows up here first.

use desim::SimTime;
use serve::{ArrivalConfig, FairShare, JobBackend, ServeConfig};

type BackendCtor = fn() -> Box<dyn JobBackend>;

/// (backend, the two summary lines of `ServeReport::render()`,
/// jobs/s · p99 latency in seconds · utilization to six places).
const PINNED: [(BackendCtor, &str, &str); 2] = [
    (
        serve::hadoop_backend,
        "serve report: scheduler=fair backend=hadoop workers=23\n\
         jobs=16 makespan_ms=230024 jobs_per_sec=0.0696 p50_ms=47169 p95_ms=135909 \
         p99_ms=208337 util=0.3648 recovered=0 restarts=0\n",
        "0.069558 208.337551 0.364753",
    ),
    (
        serve::mpid_backend,
        "serve report: scheduler=fair backend=mpid workers=23\n\
         jobs=16 makespan_ms=107444 jobs_per_sec=0.1489 p50_ms=6797 p95_ms=37447 \
         p99_ms=85757 util=0.2299 recovered=0 restarts=0\n",
        "0.148915 85.757415 0.229941",
    ),
];

#[test]
fn heavy_load_quick_point_is_pinned_on_both_stacks() {
    let stream = serve::arrival_stream(0x5E12, &ArrivalConfig::new(16, SimTime::from_secs(2)));
    for (backend, summary, metrics) in PINNED {
        let report = serve::run_serve(
            &ServeConfig::rackscale(3, 8, 4.0),
            Box::new(FairShare),
            backend(),
            &stream,
            &faults::FaultPlan::none(),
            None,
        );
        let rendered = report.render();
        assert!(
            rendered.starts_with(summary),
            "{} serve summary moved:\n{rendered}",
            report.backend
        );
        assert_eq!(
            format!(
                "{:.6} {:.6} {:.6}",
                report.jobs_per_sec(),
                report.latency_quantile(0.99).as_secs_f64(),
                report.utilization()
            ),
            metrics,
            "{} jobs/s, p99 s, utilization",
            report.backend
        );
    }
}
