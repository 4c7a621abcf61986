//! Isolated probes: one layer's public functions, timed alone. None of them
//! depends on the workload; they price the fixed costs every job pays.

use crate::metrics::Layers;
use crate::stats::median;
use crate::workloads::Scale;
use bytes::Bytes;
use desim::{Sim, SimTime};
use mpi_rt::Universe;
use std::hint::black_box;
use std::time::{Duration, Instant};

const TAG: i32 = 7;
const TIMEOUT: Duration = Duration::from_secs(60);

/// Run every probe and record its metric.
pub fn run(scale: Scale, out: &mut Layers) {
    let shrink = match scale {
        Scale::Full => 1,
        Scale::Small => 20,
    };
    out.set("mpirt.p2p.eager_rtt_ns", eager_rtt_ns(20_000 / shrink));
    out.set("mpirt.p2p.rndv_mb_per_s", rndv_mb_per_s(400 / shrink));
    out.set("mpirt.universe.spawn_join_us", spawn_join_us(200 / shrink));
    out.set(
        "desim.queue.events_per_s",
        queue_events_per_s(1_000_000 / shrink as u64),
    );
}

/// Round-trip time of a 64-byte message between two ranks (eager protocol).
fn eager_rtt_ns(round_trips: usize) -> f64 {
    let walls = Universe::run(2, move |comm| {
        let msg = [0u8; 64];
        let peer = 1 - comm.rank();
        let t0 = Instant::now();
        for _ in 0..round_trips {
            if comm.rank() == 0 {
                comm.send(peer, TAG, &msg).expect("ping");
                black_box(comm.recv::<u8>(Some(peer), Some(TAG)).expect("pong"));
            } else {
                black_box(comm.recv::<u8>(Some(peer), Some(TAG)).expect("ping"));
                comm.send(peer, TAG, &msg).expect("pong");
            }
        }
        t0.elapsed().as_secs_f64()
    });
    walls[0] * 1e9 / round_trips as f64
}

/// One-way bandwidth of 1 MiB messages (rendezvous protocol, `Bytes`
/// hand-over as the MPI-D sender ships frames).
fn rndv_mb_per_s(messages: usize) -> f64 {
    const LEN: usize = 1 << 20;
    let walls = Universe::run(2, move |comm| {
        let payload = Bytes::from(vec![0xA5u8; LEN]);
        let t0 = Instant::now();
        for _ in 0..messages {
            if comm.rank() == 0 {
                comm.send_bytes(1, TAG, payload.clone()).expect("send");
            } else {
                let (got, _) = comm
                    .recv_bytes_timeout(Some(0), Some(TAG), TIMEOUT)
                    .expect("recv");
                assert_eq!(got.len(), LEN);
            }
        }
        t0.elapsed().as_secs_f64()
    });
    (messages * LEN) as f64 / 1e6 / walls[1]
}

/// Spawning and joining five ranks that do nothing: the fixed cost of a
/// 2 + 2 job's universe.
fn spawn_join_us(universes: usize) -> f64 {
    let walls: Vec<f64> = (0..universes)
        .map(|_| {
            let t0 = Instant::now();
            black_box(Universe::run(5, |comm| comm.rank()));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&walls)
}

/// Scheduling and running `events` no-op events through the event queue.
fn queue_events_per_s(events: u64) -> f64 {
    let mut sim = Sim::new(0u64);
    let t0 = Instant::now();
    for i in 0..events {
        sim.schedule(SimTime::from_nanos(i), |count: &mut u64, _| *count += 1);
    }
    sim.run();
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(sim.state, events);
    events as f64 / wall_s
}
