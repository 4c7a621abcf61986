//! Shared block pool: a byte budget for everything the MPI-D data path
//! buffers in memory on one job.
//!
//! Mimir's answer to MapReduce memory blowups was a fixed universe of
//! equal-sized `DataObject` blocks handed out from a global pool, with
//! out-of-core spilling when the pool runs dry. We keep the *accounting*
//! half of that design and skip the fixed-block allocator: Rust's growable
//! buffers already amortize allocation well, so the pool tracks live bytes
//! against a budget and the stages (sender table, receiver frame window)
//! ask it when to spill. The invariant that
//! matters for the CI gate is that `high_water` never exceeds the budget as
//! long as every stage charges *before* it buffers and spills when a charge
//! is refused.
//!
//! The pool is shared across the ranks of one job via `Arc`, so the budget
//! bounds the job's aggregate buffering, not one rank's. Charges are plain
//! atomics on one cache line every rank touches, so a stage that buffers
//! pair by pair charges by the block, as Mimir counts its budget: a sender
//! charges [`BLOCK_BYTES`] ahead of its raw bytes, and never past its
//! spill threshold, so one mapper's epoch holds at most
//! `max(raw bytes, spill_threshold_bytes)` and the atomics run once per
//! block. At `threads = 1` that is all a mapper holds. At `threads >= 2` a
//! spilled epoch keeps its charge until its frames ship, a few blocks into
//! the next epoch ([`crate::sender`]'s "Spill a late"), so a mapper holds
//! up to `spill_threshold_bytes` plus six blocks. A receiver charges whole
//! frames. A refused
//! [`BlockPool::try_charge`] never blocks — the caller's remedy is to
//! spill its own buffers, which releases its own charge; waiting on
//! *other* ranks to release theirs could deadlock a rank that holds
//! nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The granularity of a sender's pool charge (see the module doc).
pub const BLOCK_BYTES: usize = 64 << 10;

/// Byte-budget accountant shared by all buffering stages of one job.
#[derive(Debug)]
pub struct BlockPool {
    budget: usize,
    live: AtomicUsize,
    high_water: AtomicUsize,
    /// Charges taken with [`BlockPool::charge`] while already at/over budget
    /// — a stage that cannot shrink any further (e.g. a single group larger
    /// than the budget) records the overrun instead of deadlocking.
    forced: AtomicUsize,
}

/// Point-in-time snapshot of a pool, for job outputs and gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured byte budget.
    pub budget: usize,
    /// Bytes charged at snapshot time.
    pub live: usize,
    /// Maximum of `live` over the pool's lifetime.
    pub high_water: usize,
    /// Times a forced charge pushed `live` past the budget.
    pub forced: usize,
}

impl BlockPool {
    /// A pool enforcing `budget` bytes across everything charged to it.
    pub fn new(budget: usize) -> Arc<Self> {
        Arc::new(BlockPool {
            budget,
            live: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            forced: AtomicUsize::new(0),
        })
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently charged.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Maximum of `live` over the pool's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Number of times [`BlockPool::charge`] pushed `live` past the budget.
    pub fn forced(&self) -> usize {
        self.forced.load(Ordering::Relaxed)
    }

    /// Try to reserve `n` bytes. Fails (charging nothing) if the reservation
    /// would exceed the budget; the caller should spill and retry, or fall
    /// back to [`BlockPool::charge`] if it has nothing left to spill.
    pub fn try_charge(&self, n: usize) -> bool {
        let mut cur = self.live.load(Ordering::Relaxed);
        loop {
            let next = cur + n;
            if next > self.budget {
                return false;
            }
            match self
                .live
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.bump_high_water(next);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Reserve `n` bytes unconditionally. Overruns are counted in `forced`
    /// (and show up as `high_water > budget`) rather than refused: this is
    /// the escape hatch for an irreducible buffer, e.g. one key group bigger
    /// than the whole budget.
    pub fn charge(&self, n: usize) {
        let next = self.live.fetch_add(n, Ordering::Relaxed) + n;
        if next > self.budget {
            self.forced.fetch_add(1, Ordering::Relaxed);
        }
        self.bump_high_water(next);
    }

    /// Return `n` previously charged bytes.
    pub fn release(&self, n: usize) {
        let prev = self.live.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(prev >= n, "pool release of {n} bytes exceeds live {prev}");
    }

    /// Snapshot the pool for a job output or a gate check.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            budget: self.budget,
            live: self.live(),
            high_water: self.high_water(),
            forced: self.forced(),
        }
    }

    fn bump_high_water(&self, candidate: usize) {
        self.high_water.fetch_max(candidate, Ordering::Relaxed);
    }
}

/// RAII charge: releases its bytes on drop. Stages that buffer for a lexical
/// scope (a merge window, a spill epoch) hold one of these so early returns
/// can't leak charge.
#[derive(Debug)]
pub struct PoolCharge {
    pool: Option<Arc<BlockPool>>,
    bytes: usize,
}

impl PoolCharge {
    /// A charge of zero bytes against `pool` (or a no-op charge if `None`).
    pub fn new(pool: Option<Arc<BlockPool>>) -> Self {
        PoolCharge { pool, bytes: 0 }
    }

    /// Grow this charge by `n` bytes. Returns `false` if the pool refused
    /// (budget would be exceeded); the charge is unchanged in that case.
    pub fn try_grow(&mut self, n: usize) -> bool {
        if let Some(p) = &self.pool {
            if !p.try_charge(n) {
                return false;
            }
        }
        self.bytes += n;
        true
    }

    /// Grow unconditionally (counts toward `forced` on overrun).
    pub fn grow(&mut self, n: usize) {
        if let Some(p) = &self.pool {
            p.charge(n);
        }
        self.bytes += n;
    }

    /// Release the whole charge now (idempotent; drop does the same).
    pub fn clear(&mut self) {
        if let Some(p) = &self.pool {
            if self.bytes > 0 {
                p.release(self.bytes);
            }
        }
        self.bytes = 0;
    }

    /// Bytes currently held by this charge.
    pub fn held(&self) -> usize {
        self.bytes
    }

    /// Move `n` of this charge's bytes into a new charge on the same pool;
    /// the pool sees no release and no new charge.
    pub fn split_off(&mut self, n: usize) -> PoolCharge {
        assert!(n <= self.bytes, "split of {n} bytes from {}", self.bytes);
        self.bytes -= n;
        PoolCharge {
            pool: self.pool.as_ref().map(Arc::clone),
            bytes: n,
        }
    }
}

impl Drop for PoolCharge {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_charge_respects_budget() {
        let p = BlockPool::new(100);
        assert!(p.try_charge(60));
        assert!(!p.try_charge(50), "60 + 50 exceeds 100");
        assert!(p.try_charge(40));
        assert_eq!(p.live(), 100);
        assert_eq!(p.high_water(), 100);
        assert_eq!(p.forced(), 0);
        p.release(100);
        assert_eq!(p.live(), 0);
        assert_eq!(p.high_water(), 100, "high water is sticky");
    }

    #[test]
    fn forced_charge_counts_overrun() {
        let p = BlockPool::new(10);
        p.charge(25);
        assert_eq!(p.forced(), 1);
        assert_eq!(p.high_water(), 25);
        p.release(25);
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn pool_charge_releases_on_drop() {
        let p = BlockPool::new(100);
        {
            let mut c = PoolCharge::new(Some(p.clone()));
            assert!(c.try_grow(70));
            assert!(!c.try_grow(40));
            c.grow(40); // forced past budget
            assert_eq!(c.held(), 110);
            assert_eq!(p.live(), 110);
        }
        assert_eq!(p.live(), 0, "drop released everything");
        assert_eq!(p.high_water(), 110);
        assert_eq!(p.forced(), 1);
    }

    #[test]
    fn a_split_charge_releases_its_own_bytes() {
        let p = BlockPool::new(100);
        let mut whole = PoolCharge::new(Some(p.clone()));
        assert!(whole.try_grow(90));
        let part = whole.split_off(30);
        assert_eq!((whole.held(), part.held(), p.live()), (60, 30, 90));
        drop(whole);
        assert_eq!(p.live(), 30);
        drop(part);
        assert_eq!((p.live(), p.high_water(), p.forced()), (0, 90, 0));
    }

    #[test]
    fn no_pool_charge_is_noop() {
        let mut c = PoolCharge::new(None);
        assert!(c.try_grow(1 << 40));
        c.grow(1 << 40);
        assert_eq!(c.held(), 2 << 40);
        c.clear();
        assert_eq!(c.held(), 0);
    }

    #[test]
    fn concurrent_charges_never_lose_updates() {
        let p = BlockPool::new(usize::MAX);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = &p;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        p.charge(3);
                        p.release(3);
                    }
                });
            }
        });
        assert_eq!(p.live(), 0);
    }
}
