//! Property tests for the MPI runtime: point-to-point traffic is delivered
//! exactly once with payload integrity.

use mpi_rt::{MpiConfig, Universe};
use proptest::prelude::*;

proptest! {
    // Universes spawn threads; keep case counts moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fan-in: arbitrary payloads from all ranks arrive at rank 0 exactly
    /// once, intact, and per-sender in order — under both wire protocols.
    #[test]
    fn fan_in_exactly_once(
        n in 2usize..6,
        payload_sizes in proptest::collection::vec(0usize..600, 1..12),
        eager_threshold in prop_oneof![Just(16usize), Just(64 * 1024)],
    ) {
        let sizes = payload_sizes.clone();
        let results = Universe::run_with(
            MpiConfig { eager_threshold, ..MpiConfig::default() },
            n,
            move |comm| {
                if comm.rank() == 0 {
                    let expected = (n - 1) * sizes.len();
                    let mut per_sender = vec![0usize; n];
                    let mut ok = true;
                    for _ in 0..expected {
                        let (data, st) = comm.recv::<u8>(None, Some(1)).unwrap();
                        let k = per_sender[st.source];
                        per_sender[st.source] += 1;
                        // Payload: sender rank byte repeated sizes[k] times.
                        ok &= data.len() == sizes[k];
                        ok &= data.iter().all(|&b| b == st.source as u8);
                    }
                    ok && per_sender[1..].iter().all(|&c| c == sizes.len())
                } else {
                    for &sz in &sizes {
                        let payload = vec![comm.rank() as u8; sz];
                        comm.send(0, 1, &payload).unwrap();
                    }
                    true
                }
            },
        );
        prop_assert!(results.into_iter().all(|b| b));
    }
}
