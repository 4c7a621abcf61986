//! Barrier tests over a range of universe sizes (including non powers of
//! two, which exercise the dissemination rounds' edge cases).

use mpi_rt::Universe;

const SIZES: &[usize] = &[1, 2, 3, 4, 5, 7, 8];

#[test]
fn barrier_completes_at_all_sizes() {
    for &n in SIZES {
        Universe::run(n, |comm| {
            for _ in 0..3 {
                comm.barrier().unwrap();
            }
        });
    }
}

#[test]
fn barrier_actually_synchronizes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let arrived = Arc::new(AtomicUsize::new(0));
    let n = 6;
    let a = arrived.clone();
    Universe::run(n, move |comm| {
        // Stagger arrival.
        std::thread::sleep(std::time::Duration::from_millis(comm.rank() as u64 * 10));
        a.fetch_add(1, Ordering::SeqCst);
        comm.barrier().unwrap();
        // After the barrier, every rank must have arrived.
        assert_eq!(a.load(Ordering::SeqCst), n);
    });
}
