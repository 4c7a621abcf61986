//! Max-min fair fluid sharing of capacitated resources.
//!
//! The core abstraction of the cluster simulator: a set of *resources* (NIC
//! uplinks/downlinks, disks, loopback memory channels), each with a capacity in
//! bytes/second, and a set of *flows*, each of which must push a number of
//! bytes through one or more resources simultaneously (a host-to-host transfer
//! uses the source uplink **and** the destination downlink).
//!
//! Rates are assigned by weighted **progressive filling** (the textbook
//! max-min fairness algorithm): repeatedly find the resource whose fair share
//! per unit weight is smallest, freeze every unfrozen flow crossing it at its
//! fair share, subtract, and repeat. This is how long-lived TCP flows through
//! a non-blocking switch share a Gigabit Ethernet in steady state — exactly
//! the regime of the paper's shuffle measurements.
//!
//! # Incremental recomputation
//!
//! Max-min allocation decomposes over the connected components of the
//! bipartite flow↔resource graph: a flow's rate depends only on the flows it
//! (transitively) shares a resource with. Every mutation (start, cancel,
//! completion batch, capacity change, stall/resume) therefore recomputes only
//! the component(s) reachable from the touched resources, leaving every other
//! flow's rate untouched — and *bit-identical* to what a from-scratch
//! recompute would produce, because within a component the arithmetic
//! (weight accumulation over flows in ascending `FlowId` order, bottleneck
//! scan over resources in ascending index order, freeze batches, residual
//! clamps) is exactly the sequence the full solver would execute restricted
//! to that component. A component that spans the whole graph (an
//! all-to-one shuffle) takes the same scoped path.
//! [`FluidEngine::recompute_full`] keeps the from-scratch path alive as the
//! oracle, and `set_force_full` lets tests run every mutation through it to
//! prove `incremental ≡ full` (see `tests/incremental.rs`).
//!
//! # Flow storage
//!
//! Flows live in a `FlowTable` — a `Vec` sorted by [`FlowId`], appended
//! to on start and binary-searched on lookup — and each resource keeps the
//! ids of the flows crossing it as one ascending `Vec<FlowId>`. Ascending
//! `FlowId` is the arithmetic-order contract: every sum over flows (fair
//! share weights, `advance`'s delivered bytes, [`FluidEngine::utilization`])
//! and every completion batch runs in that order, so any storage that
//! iterates it yields the same bits.

use crate::flowtable::FlowTable;
use std::sync::atomic::{AtomicBool, Ordering};

/// Identifies a capacitated resource (e.g. "host 3 uplink").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub usize);

/// Identifies an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone)]
struct FlowState {
    remaining: f64,
    resources: Vec<ResourceId>,
    weight: f64,
    rate: f64,
    /// Stalled flows (a link partition holds them) keep their delivered
    /// bytes and their id but get rate 0 and contribute no weight to the
    /// fair-share computation until resumed.
    stalled: bool,
    /// `visit_epoch == Scratch::epoch` ⇔ this flow is already in the
    /// current component — BFS membership without per-recompute set churn.
    visit_epoch: u64,
}

/// Completion-free residual below which a flow counts as finished.
/// (Fluid arithmetic is f64; one byte of slack absorbs rounding.)
const DONE_EPS: f64 = 1e-6;

/// Work counters for the max-min solver, published as the obs
/// `net.solver.*` counters and pinned per solver mode by
/// `tests/solver_counters.rs`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Rate recomputations performed (scoped or full).
    pub recomputes: u64,
    /// Recomputations that ran the from-scratch path over every resource
    /// (nonzero only under [`FluidEngine::set_force_full`] or a direct
    /// [`FluidEngine::recompute_full`] call).
    pub full_recomputes: u64,
    /// Resource fair-share evaluations across all bottleneck scans — the
    /// dominant cost of progressive filling. A full recompute sweeps every
    /// resource once per freeze level; a scoped one only its component.
    pub resources_swept: u64,
    /// Flow rate assignments written (component sizes summed).
    pub flows_rerated: u64,
}

impl SolverStats {
    /// Counter-wise difference (`self - earlier`), for delta publishing.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            recomputes: self.recomputes - earlier.recomputes,
            full_recomputes: self.full_recomputes - earlier.full_recomputes,
            resources_swept: self.resources_swept - earlier.resources_swept,
            flows_rerated: self.flows_rerated - earlier.flows_rerated,
        }
    }
}

/// Process-wide default for [`FluidEngine::set_force_full`], read once at
/// engine construction. It exists for `tests/solver_counters.rs`, which
/// pins the work of both solver modes through simulators that build their
/// own engines internally. Set it *before* constructing a simulation; it is
/// a static mode switch, not a source of nondeterminism.
static FORCE_FULL_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Make newly constructed engines recompute from scratch on every mutation
/// (verification knob, read once at each engine's construction; it exists
/// for `tests/solver_counters.rs`).
pub fn set_force_full_default(on: bool) {
    FORCE_FULL_DEFAULT.store(on, Ordering::SeqCst);
}

/// Reusable buffers for the scoped recompute — component discovery and
/// progressive filling allocate nothing on the steady-state path.
#[derive(Debug, Default)]
struct Scratch {
    /// `res_epoch[r] == epoch` ⇔ resource `r` is in the current component.
    res_epoch: Vec<u64>,
    epoch: u64,
    /// BFS worklist of resource indices.
    queue: Vec<usize>,
    /// Component resources, sorted ascending before filling.
    comp_res: Vec<usize>,
    /// Component flows as [`FlowTable`] slots, sorted before filling
    /// (slot order is ascending `FlowId` order).
    comp_flows: Vec<usize>,
    /// Residual capacity / unfrozen weight, indexed by resource id;
    /// only component entries are initialized per recompute.
    residual: Vec<f64>,
    weight_on: Vec<f64>,
    /// Frozen flags parallel to `comp_flows`.
    frozen: Vec<bool>,
    /// Seed-resource buffer reused by mutators.
    seeds: Vec<ResourceId>,
}

/// The fluid engine: resources, flows, and max-min rate assignment.
///
/// Purely computational — time advancement is driven externally (see
/// `netsim::net::Net` for the DES driver).
#[derive(Debug, Default)]
pub struct FluidEngine {
    capacities: Vec<f64>,
    /// Live flows, iterated in ascending id order (the accumulation order
    /// of every f64 sum over flows).
    flows: FlowTable<FlowState>,
    /// Ids of the flows (stalled included) crossing each resource,
    /// ascending — the adjacency used for component discovery, victim
    /// lookup and utilization.
    res_flows: Vec<Vec<FlowId>>,
    next_id: u64,
    total_bytes_completed: f64,
    force_full: bool,
    stats: SolverStats,
    /// `Some(v)` memoizes [`Self::next_completion`]; `None` forces a rescan.
    next_cache: Option<Option<f64>>,
    scratch: Scratch,
}

impl FluidEngine {
    /// Engine with no resources.
    pub fn new() -> Self {
        FluidEngine {
            force_full: FORCE_FULL_DEFAULT.load(Ordering::SeqCst),
            next_cache: Some(None),
            ..Self::default()
        }
    }

    /// Add a resource with the given capacity (bytes/sec); returns its id.
    ///
    /// # Panics
    /// Panics unless `capacity` is positive and finite.
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "resource capacity must be positive and finite, got {capacity}"
        );
        self.capacities.push(capacity);
        self.res_flows.push(Vec::new());
        ResourceId(self.capacities.len() - 1)
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.capacities.len()
    }

    /// Capacity of a resource.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.capacities[r.0]
    }

    /// Solver work counters accumulated since construction.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Route every future mutation through the from-scratch recompute
    /// (`true`) instead of the scoped incremental one (`false`, default).
    /// Rates are bit-identical either way; this exists so tests can prove
    /// exactly that and count the work each mode does.
    pub fn set_force_full(&mut self, on: bool) {
        self.force_full = on;
    }

    /// Start a flow of `bytes` across `resources` with fairness `weight`
    /// (1.0 = one TCP-stream's worth). Rates react immediately.
    ///
    /// # Panics
    /// Panics if `resources` is empty, contains an unknown id, or `weight`
    /// is not positive.
    pub fn start_flow(&mut self, bytes: u64, resources: &[ResourceId], weight: f64) -> FlowId {
        assert!(
            !resources.is_empty(),
            "flow must cross at least one resource"
        );
        assert!(weight > 0.0 && weight.is_finite());
        for r in resources {
            assert!(r.0 < self.capacities.len(), "unknown resource {r:?}");
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        // Deduplicate: a flow crossing the same resource twice would double-
        // count its weight in the fair-share computation.
        let mut resources = resources.to_vec();
        resources.sort_unstable();
        resources.dedup();
        // `id` exceeds every id issued before, so appending keeps each
        // adjacency list ascending.
        for r in &resources {
            self.res_flows[r.0].push(id);
        }
        let mut seeds = std::mem::take(&mut self.scratch.seeds);
        seeds.clear();
        seeds.extend_from_slice(&resources);
        self.flows.insert(
            id,
            FlowState {
                remaining: bytes as f64,
                resources,
                weight,
                rate: 0.0,
                stalled: false,
                visit_epoch: 0,
            },
        );
        self.recompute_scoped(&seeds);
        self.scratch.seeds = seeds;
        id
    }

    /// Remove a flow without completing it. Returns the unfinished byte count,
    /// or `None` if the flow is unknown (already completed or cancelled).
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<u64> {
        let st = self.unlink(id)?;
        let mut seeds = std::mem::take(&mut self.scratch.seeds);
        seeds.clear();
        seeds.extend_from_slice(&st.resources);
        self.recompute_scoped(&seeds);
        self.scratch.seeds = seeds;
        Some(st.remaining.max(0.0).round() as u64)
    }

    /// Re-rate a resource mid-simulation (fault injection: a NIC that
    /// renegotiated down, a disk retrying sectors). Rates of the flows in
    /// the resource's component react at the instant of the change.
    ///
    /// # Panics
    /// Panics unless `capacity` is positive and finite.
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "resource capacity must be positive and finite, got {capacity}"
        );
        self.capacities[r.0] = capacity;
        self.recompute_scoped(&[r]);
    }

    /// Kill every flow crossing any of `resources` (endpoint death: the
    /// host owning them crashed). Returns `(id, unfinished bytes)` per
    /// killed flow in ascending id order. Rates are recomputed **once**, so
    /// the freed bandwidth re-shares to the survivors immediately — no
    /// ghost flows keep holding max-min shares.
    pub fn kill_flows_crossing(&mut self, resources: &[ResourceId]) -> Vec<(FlowId, u64)> {
        let mut victims: Vec<FlowId> = resources
            .iter()
            .filter_map(|r| self.res_flows.get(r.0))
            .flatten()
            .copied()
            .collect();
        victims.sort_unstable();
        victims.dedup();
        let mut out = Vec::with_capacity(victims.len());
        let mut seeds = std::mem::take(&mut self.scratch.seeds);
        seeds.clear();
        for id in victims {
            let st = self.unlink(id).expect("victim flow present");
            seeds.extend_from_slice(&st.resources);
            out.push((id, st.remaining.max(0.0).round() as u64));
        }
        if !out.is_empty() {
            self.recompute_scoped(&seeds);
        }
        self.scratch.seeds = seeds;
        out
    }

    /// Stall a flow: it keeps its id and delivered bytes but gets rate 0 and
    /// stops competing for bandwidth until [`resume_flow`](Self::resume_flow).
    /// Models a link partition holding TCP connections in retransmit backoff.
    /// Returns `false` if the flow is unknown; stalling twice is a no-op.
    pub fn stall_flow(&mut self, id: FlowId) -> bool {
        self.set_stalled(id, true)
    }

    /// Resume a stalled flow; it rejoins the max-min sharing immediately.
    /// Returns `false` if the flow is unknown; resuming a running flow is a
    /// no-op.
    pub fn resume_flow(&mut self, id: FlowId) -> bool {
        self.set_stalled(id, false)
    }

    fn set_stalled(&mut self, id: FlowId, stalled: bool) -> bool {
        let Some(f) = self.flows.get_mut(id) else {
            return false;
        };
        if f.stalled != stalled {
            f.stalled = stalled;
            let mut seeds = std::mem::take(&mut self.scratch.seeds);
            seeds.clear();
            seeds.extend_from_slice(&f.resources);
            self.recompute_scoped(&seeds);
            self.scratch.seeds = seeds;
        }
        true
    }

    /// Remove a flow from the table and from its resources' adjacency.
    fn unlink(&mut self, id: FlowId) -> Option<FlowState> {
        let st = self.flows.remove(id)?;
        for r in &st.resources {
            let on = &mut self.res_flows[r.0];
            if let Ok(i) = on.binary_search(&id) {
                on.remove(i);
            }
        }
        Some(st)
    }

    /// Whether a flow is currently stalled; `None` if unknown.
    pub fn is_stalled(&self, id: FlowId) -> Option<bool> {
        self.flows.get(id).map(|f| f.stalled)
    }

    /// Current rate (bytes/sec) of a flow; `None` if unknown.
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.flows.get(id).map(|f| f.rate)
    }

    /// Remaining bytes of a flow; `None` if unknown.
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.get(id).map(|f| f.remaining)
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes delivered by completed-or-progressed flows so far.
    pub fn total_bytes_completed(&self) -> f64 {
        self.total_bytes_completed
    }

    /// Advance all flows by `dt_secs`, returning the ids of flows that
    /// completed (in ascending id order — deterministic). All completions in
    /// the batch share **one** scoped recompute seeded by the union of their
    /// resources; the next-completion cache is refreshed in the same pass.
    pub fn advance(&mut self, dt_secs: f64) -> Vec<FlowId> {
        assert!(dt_secs >= 0.0 && dt_secs.is_finite());
        if self.flows.is_empty() {
            self.next_cache = Some(None);
            return Vec::new();
        }
        // NOTE: dt == 0 must still run the completion scan — zero-byte flows
        // complete without time passing, and the DES driver relies on that.
        let mut done = Vec::new();
        let mut next: Option<f64> = None;
        for (id, f) in self.flows.iter_mut() {
            let moved = f.rate * dt_secs;
            self.total_bytes_completed += moved.min(f.remaining);
            f.remaining -= moved;
            // A stalled flow never completes — even a zero-byte one must wait
            // for the partition to heal before its completion can be observed.
            if !f.stalled && f.remaining <= DONE_EPS {
                done.push(id);
            } else if f.rate > 0.0 {
                let t = (f.remaining / f.rate).max(0.0);
                next = Some(match next {
                    Some(b) if b <= t => b,
                    _ => t,
                });
            }
        }
        if done.is_empty() {
            self.next_cache = Some(next);
            return done;
        }
        let mut seeds = std::mem::take(&mut self.scratch.seeds);
        seeds.clear();
        for &id in &done {
            let st = self.unlink(id).expect("completed flow present");
            seeds.extend_from_slice(&st.resources);
        }
        self.recompute_scoped(&seeds);
        self.scratch.seeds = seeds;
        done
    }

    /// Seconds until the next flow completes at current rates, if any flow is
    /// making progress. Memoized: [`Self::advance`] refreshes the value as a
    /// byproduct of its progress sweep, so back-to-back calls with no
    /// intervening mutation cost O(1) instead of a full flow scan.
    pub fn next_completion(&mut self) -> Option<f64> {
        if let Some(v) = self.next_cache {
            return v;
        }
        let v = self.scan_next_completion();
        self.next_cache = Some(v);
        v
    }

    fn scan_next_completion(&self) -> Option<f64> {
        let mut next: Option<f64> = None;
        for (_, f) in self.flows.iter() {
            if f.rate > 0.0 {
                let t = (f.remaining / f.rate).max(0.0);
                next = Some(match next {
                    Some(b) if b <= t => b,
                    _ => t,
                });
            }
        }
        next
    }

    /// Recompute only the connected component(s) of the flow↔resource graph
    /// reachable from `seeds` (duplicates allowed) — however large, up to
    /// the whole graph. Only [`Self::set_force_full`] routes a mutation to
    /// [`Self::recompute_full`] instead.
    fn recompute_scoped(&mut self, seeds: &[ResourceId]) {
        if self.force_full {
            self.recompute_full();
            return;
        }
        let n_res = self.capacities.len();
        let mut scr = std::mem::take(&mut self.scratch);
        scr.res_epoch.resize(n_res, 0);
        scr.epoch += 1;
        let epoch = scr.epoch;
        scr.queue.clear();
        scr.comp_res.clear();
        scr.comp_flows.clear();
        // Traversal: resources connect to resources through non-stalled
        // flows (a stalled flow contributes no weight anywhere, so it
        // cannot couple two resources' allocations — but it still belongs
        // to the component for the rate-zeroing pass below). Flow
        // membership is an epoch stamp on the flow itself, not a set
        // insert.
        for seed in seeds {
            if scr.res_epoch[seed.0] == epoch {
                continue;
            }
            scr.res_epoch[seed.0] = epoch;
            scr.queue.push(seed.0);
            scr.comp_res.push(seed.0);
            while let Some(r) = scr.queue.pop() {
                for &fid in &self.res_flows[r] {
                    let slot = self.flows.slot(fid).expect("indexed flow present");
                    let f = self.flows.at_mut(slot);
                    if f.visit_epoch == epoch {
                        continue;
                    }
                    f.visit_epoch = epoch;
                    scr.comp_flows.push(slot);
                    if !f.stalled {
                        for rr in &f.resources {
                            if scr.res_epoch[rr.0] != epoch {
                                scr.res_epoch[rr.0] = epoch;
                                scr.queue.push(rr.0);
                                scr.comp_res.push(rr.0);
                            }
                        }
                    }
                }
            }
        }
        self.next_cache = None;
        self.stats.recomputes += 1;
        scr.comp_res.sort_unstable();
        scr.comp_flows.sort_unstable();
        self.fill(&mut scr);
        self.scratch = scr;
    }

    /// From-scratch recompute over every resource and flow — the reference
    /// the scoped path is proven against (`tests/incremental.rs`,
    /// `tests/long_history.rs`), kept callable for those tests.
    pub fn recompute_full(&mut self) {
        self.next_cache = None;
        self.stats.recomputes += 1;
        self.stats.full_recomputes += 1;
        let mut scr = std::mem::take(&mut self.scratch);
        scr.comp_res.clear();
        scr.comp_res.extend(0..self.capacities.len());
        scr.comp_flows.clear();
        scr.comp_flows.extend(self.flows.slots());
        self.fill(&mut scr);
        self.scratch = scr;
    }

    /// Weighted progressive filling over `scr.comp_res` (ascending resource
    /// indices) and `scr.comp_flows` (ascending table slots, i.e. ascending
    /// flow ids). Restricting both to one connected component executes the
    /// identical f64 operation sequence the whole-graph filling would on
    /// that component, which is what makes the scoped recompute
    /// bit-identical to the full one.
    fn fill(&mut self, scr: &mut Scratch) {
        let n_res = self.capacities.len();
        scr.residual.resize(n_res, 0.0);
        scr.weight_on.resize(n_res, 0.0);
        for &r in &scr.comp_res {
            scr.residual[r] = self.capacities[r];
            scr.weight_on[r] = 0.0;
        }
        scr.frozen.clear();
        scr.frozen.resize(scr.comp_flows.len(), false);
        // Stalled flows are pre-frozen at rate 0 and contribute no weight:
        // a partitioned connection neither moves bytes nor holds shares.
        let mut unfrozen = 0usize;
        for (i, &slot) in scr.comp_flows.iter().enumerate() {
            let f = self.flows.at_mut(slot);
            f.rate = 0.0;
            if f.stalled {
                scr.frozen[i] = true;
            } else {
                unfrozen += 1;
                for r in &f.resources {
                    scr.weight_on[r.0] += f.weight;
                }
            }
        }
        self.stats.flows_rerated += scr.comp_flows.len() as u64;
        while unfrozen > 0 {
            // Find the bottleneck: resource with the least fair share per
            // unit of weight.
            self.stats.resources_swept += scr.comp_res.len() as u64;
            let mut best: Option<(usize, f64)> = None;
            for &r in &scr.comp_res {
                // f64 subtraction of accumulated weights can leave a tiny
                // residue; treat near-zero as "no unfrozen flows here".
                if scr.weight_on[r] <= 1e-9 {
                    continue;
                }
                let fair = scr.residual[r] / scr.weight_on[r];
                match best {
                    Some((_, b)) if fair >= b => {}
                    _ => best = Some((r, fair)),
                }
            }
            let Some((bottleneck, fair)) = best else {
                break; // remaining flows cross only weightless resources: impossible
            };
            let fair = fair.max(0.0);
            // Freeze every unfrozen flow crossing the bottleneck at
            // `fair * weight`.
            let mut froze_any = false;
            for (i, &slot) in scr.comp_flows.iter().enumerate() {
                if scr.frozen[i] {
                    continue;
                }
                let f = self.flows.at_mut(slot);
                if !f.resources.iter().any(|r| r.0 == bottleneck) {
                    continue;
                }
                f.rate = fair * f.weight;
                scr.frozen[i] = true;
                froze_any = true;
                unfrozen -= 1;
                for r in &f.resources {
                    scr.residual[r.0] -= f.rate;
                    scr.weight_on[r.0] -= f.weight;
                }
            }
            debug_assert!(froze_any, "bottleneck with weight but no flows");
            // Guard tiny negative residuals from f64 rounding.
            for &r in &scr.comp_res {
                if scr.residual[r] < 0.0 {
                    scr.residual[r] = 0.0;
                }
            }
        }
    }

    /// Sum of rates crossing a resource (for assertions/telemetry), added
    /// in ascending flow id order like every other sum over flows.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        self.res_flows[r.0]
            .iter()
            .map(|&id| self.flows.get(id).expect("indexed flow present").rate)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(100.0);
        let f = e.start_flow(1000, &[r], 1.0);
        assert_eq!(e.rate(f), Some(100.0));
        assert_eq!(e.next_completion(), Some(10.0));
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(100.0);
        let a = e.start_flow(1000, &[r], 1.0);
        let b = e.start_flow(1000, &[r], 1.0);
        assert_eq!(e.rate(a), Some(50.0));
        assert_eq!(e.rate(b), Some(50.0));
    }

    #[test]
    fn weighted_sharing() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(90.0);
        let a = e.start_flow(1000, &[r], 1.0);
        let b = e.start_flow(1000, &[r], 2.0);
        assert!((e.rate(a).unwrap() - 30.0).abs() < 1e-9);
        assert!((e.rate(b).unwrap() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn flow_rate_is_min_across_its_resources() {
        let mut e = FluidEngine::new();
        let fast = e.add_resource(1000.0);
        let slow = e.add_resource(10.0);
        let f = e.start_flow(1000, &[fast, slow], 1.0);
        assert_eq!(e.rate(f), Some(10.0));
    }

    #[test]
    fn classic_max_min_example() {
        // Link L1 cap 10 shared by flows A, B; link L2 cap 100 used by B, C.
        // Max-min: A = B = 5 on L1; C gets 100 - 5 = 95 on L2.
        let mut e = FluidEngine::new();
        let l1 = e.add_resource(10.0);
        let l2 = e.add_resource(100.0);
        let a = e.start_flow(1_000_000, &[l1], 1.0);
        let b = e.start_flow(1_000_000, &[l1, l2], 1.0);
        let c = e.start_flow(1_000_000, &[l2], 1.0);
        assert!((e.rate(a).unwrap() - 5.0).abs() < 1e-9);
        assert!((e.rate(b).unwrap() - 5.0).abs() < 1e-9);
        assert!((e.rate(c).unwrap() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn completion_frees_bandwidth_for_survivors() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(100.0);
        let a = e.start_flow(100, &[r], 1.0); // done after 2s at 50 B/s
        let b = e.start_flow(1000, &[r], 1.0);
        let t = e.next_completion().unwrap();
        assert!((t - 2.0).abs() < 1e-9);
        let done = e.advance(t);
        assert_eq!(done, vec![a]);
        // Survivor now gets the whole link.
        assert_eq!(e.rate(b), Some(100.0));
        assert!((e.remaining(b).unwrap() - 900.0).abs() < 1e-6);
    }

    #[test]
    fn simultaneous_completions_reported_in_id_order() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(100.0);
        let a = e.start_flow(100, &[r], 1.0);
        let b = e.start_flow(100, &[r], 1.0);
        let done = e.advance(2.0);
        assert_eq!(done, vec![a, b]);
        assert_eq!(e.active_flows(), 0);
    }

    #[test]
    fn cancel_returns_unfinished_bytes_and_frees_capacity() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(100.0);
        let a = e.start_flow(1000, &[r], 1.0);
        let b = e.start_flow(1000, &[r], 1.0);
        e.advance(1.0); // each moved 50
        let left = e.cancel_flow(a).unwrap();
        assert_eq!(left, 950);
        assert_eq!(e.rate(b), Some(100.0));
        assert_eq!(e.cancel_flow(a), None, "double cancel");
    }

    #[test]
    fn utilization_never_exceeds_capacity() {
        let mut e = FluidEngine::new();
        let up: Vec<_> = (0..4).map(|_| e.add_resource(117.0)).collect();
        let down: Vec<_> = (0..4).map(|_| e.add_resource(117.0)).collect();
        // All-to-all flows.
        for (s, &u) in up.iter().enumerate() {
            for (d, &dn) in down.iter().enumerate() {
                if s != d {
                    e.start_flow(1_000_000, &[u, dn], 1.0);
                }
            }
        }
        for r in up.iter().chain(down.iter()) {
            assert!(e.utilization(*r) <= 117.0 + 1e-6);
            // Fully loaded symmetric pattern should saturate every link.
            assert!(e.utilization(*r) >= 117.0 - 1e-6);
        }
    }

    #[test]
    fn advance_zero_dt_is_noop() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(10.0);
        let f = e.start_flow(100, &[r], 1.0);
        assert!(e.advance(0.0).is_empty());
        assert_eq!(e.remaining(f), Some(100.0));
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn empty_resource_set_rejected() {
        let mut e = FluidEngine::new();
        e.start_flow(10, &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let mut e = FluidEngine::new();
        e.add_resource(0.0);
    }

    #[test]
    fn set_capacity_rescales_rates_immediately() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(100.0);
        let f = e.start_flow(1000, &[r], 1.0);
        assert_eq!(e.rate(f), Some(100.0));
        e.set_capacity(r, 10.0);
        assert_eq!(e.rate(f), Some(10.0));
        assert_eq!(e.capacity(r), 10.0);
        e.set_capacity(r, 100.0);
        assert_eq!(e.rate(f), Some(100.0));
    }

    #[test]
    fn kill_flows_crossing_releases_shares_to_survivors() {
        // Endpoint death: three flows share a link; killing two via the
        // dead endpoint's resource must hand the survivor the full link in
        // the same recompute — no ghost shares.
        let mut e = FluidEngine::new();
        let link = e.add_resource(90.0);
        let dead = e.add_resource(1000.0);
        let a = e.start_flow(1000, &[link, dead], 1.0);
        let b = e.start_flow(1000, &[link, dead], 1.0);
        let c = e.start_flow(1000, &[link], 1.0);
        assert!((e.rate(c).unwrap() - 30.0).abs() < 1e-9);
        e.advance(1.0);
        let killed = e.kill_flows_crossing(&[dead]);
        assert_eq!(
            killed.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![a, b]
        );
        assert!(killed.iter().all(|&(_, left)| left == 970));
        assert_eq!(e.rate(c), Some(90.0), "survivor gets the whole link");
        assert_eq!(e.active_flows(), 1);
        assert!(e.utilization(dead) == 0.0, "dead resource fully released");
        // Killing with no matching flows is a no-op.
        assert!(e.kill_flows_crossing(&[dead]).is_empty());
    }

    #[test]
    fn stall_and_resume_preserve_delivered_bytes() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(100.0);
        let a = e.start_flow(1000, &[r], 1.0);
        let b = e.start_flow(1000, &[r], 1.0);
        e.advance(1.0); // 50 bytes each
        assert!(e.stall_flow(a));
        assert_eq!(e.is_stalled(a), Some(true));
        // Stalled flow releases its share; survivor gets the whole link.
        assert_eq!(e.rate(a), Some(0.0));
        assert_eq!(e.rate(b), Some(100.0));
        e.advance(1.0);
        assert!(
            (e.remaining(a).unwrap() - 950.0).abs() < 1e-6,
            "no progress while stalled"
        );
        assert!((e.remaining(b).unwrap() - 850.0).abs() < 1e-6);
        // next_completion ignores the stalled flow.
        assert!((e.next_completion().unwrap() - 8.5).abs() < 1e-9);
        assert!(e.resume_flow(a));
        assert_eq!(e.rate(a), Some(50.0));
        assert_eq!(e.rate(b), Some(50.0));
        assert!(!e.stall_flow(FlowId(99)), "unknown flow");
    }

    #[test]
    fn stalled_zero_byte_flow_waits_for_resume() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(10.0);
        let f = e.start_flow(0, &[r], 1.0);
        e.stall_flow(f);
        assert!(e.advance(1.0).is_empty(), "held by the partition");
        e.resume_flow(f);
        assert_eq!(e.advance(0.0), vec![f]);
    }

    #[test]
    fn zero_byte_flow_completes_immediately_on_advance() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(10.0);
        let f = e.start_flow(0, &[r], 1.0);
        assert_eq!(e.next_completion(), Some(0.0));
        let done = e.advance(1e-9);
        assert_eq!(done, vec![f]);
    }

    #[test]
    fn scoped_recompute_leaves_other_components_untouched() {
        // Two disjoint components; mutating one must not re-rate the other.
        let mut e = FluidEngine::new();
        let l1 = e.add_resource(10.0);
        let l2 = e.add_resource(100.0);
        let a = e.start_flow(1_000, &[l1], 1.0);
        let rerated_before = e.stats().flows_rerated;
        let b = e.start_flow(1_000, &[l2], 1.0);
        // Starting `b` re-rates only `b`'s singleton component.
        assert_eq!(e.stats().flows_rerated - rerated_before, 1);
        assert_eq!(e.rate(a), Some(10.0));
        assert_eq!(e.rate(b), Some(100.0));
        e.set_capacity(l2, 50.0);
        assert_eq!(e.rate(a), Some(10.0));
        assert_eq!(e.rate(b), Some(50.0));
        assert_eq!(e.stats().full_recomputes, 0);
    }

    #[test]
    fn incremental_sweeps_fewer_resources_than_full() {
        // Many independent single-resource components: scoped recompute
        // touches one resource per mutation, the full path all of them.
        let build = |force_full: bool| {
            let mut e = FluidEngine::new();
            e.set_force_full(force_full);
            let rs: Vec<_> = (0..32).map(|_| e.add_resource(100.0)).collect();
            for round in 0..4 {
                for r in &rs {
                    e.start_flow(50 + round, &[*r], 1.0);
                }
            }
            while e.next_completion().is_some() {
                let dt = e.next_completion().unwrap();
                e.advance(dt);
            }
            e.stats()
        };
        let inc = build(false);
        let full = build(true);
        assert_eq!(inc.full_recomputes, 0);
        assert_eq!(full.full_recomputes, full.recomputes);
        assert!(
            inc.resources_swept * 5 <= full.resources_swept,
            "scoped sweeps {} not ≥5x below full {}",
            inc.resources_swept,
            full.resources_swept
        );
    }

    #[test]
    fn recompute_full_is_idempotent_on_converged_rates() {
        let mut e = FluidEngine::new();
        let l1 = e.add_resource(10.0);
        let l2 = e.add_resource(100.0);
        let a = e.start_flow(1_000_000, &[l1], 1.0);
        let b = e.start_flow(1_000_000, &[l1, l2], 1.0);
        let c = e.start_flow(1_000_000, &[l2], 1.0);
        let rates = |e: &FluidEngine| [a, b, c].map(|f| e.rate(f).unwrap().to_bits());
        let before = rates(&e);
        e.recompute_full();
        assert_eq!(before, rates(&e), "full recompute is a fixpoint");
    }

    #[test]
    fn next_completion_cache_tracks_mutations() {
        let mut e = FluidEngine::new();
        let r = e.add_resource(100.0);
        let a = e.start_flow(1000, &[r], 1.0);
        assert_eq!(e.next_completion(), Some(10.0));
        assert_eq!(e.next_completion(), Some(10.0), "memoized");
        e.start_flow(500, &[r], 1.0);
        assert_eq!(e.next_completion(), Some(10.0), "both at 50 B/s");
        e.advance(2.0);
        assert_eq!(e.next_completion(), Some(8.0), "refreshed by advance");
        e.cancel_flow(a);
        assert_eq!(e.next_completion(), Some(4.0), "400 left at 100 B/s");
        e.advance(4.0);
        assert_eq!(e.next_completion(), None);
    }
}
