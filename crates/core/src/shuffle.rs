//! Pluggable shuffle strategies: how realigned wire frames travel from a
//! mapper's spill to the owning reducers.
//!
//! The paper's MPI-D advantage comes almost entirely from the shuffle path,
//! and in-node combining (Lee et al., arXiv:1511.04861) attacks the same
//! path by merging the outputs of co-located map tasks *before* anything
//! hits the wire. It is a policy over one seam — what happens to a
//! `SpillOutput` after realignment — so the sender routes every spill
//! through a `ShuffleStrategy` selected by [`MpidConfig::shuffle`]:
//!
//! * [`ShuffleKind::Baseline`] — the unmodified ship loop: every wire frame
//!   goes straight to its partition's reducer on [`tags::DATA`]. Selecting
//!   it adds one virtual call per *spill* (not per record); frames and
//!   traffic are bit-identical to the pre-strategy sender.
//! * [`ShuffleKind::InNodeCombine`] — mappers are grouped into hosts of
//!   `mappers_per_host` consecutive ranks. Group members relay their frames
//!   to the group leader (lowest rank) on [`tags::RELAY`] instead of
//!   shipping them; the leader stashes everything (metered through the
//!   job's [`crate::pool::BlockPool`]), then at finish merges all co-located
//!   spill runs through one `ByteTable` — folding with the job's combiner
//!   when one is installed — and ships the pre-combined frames.
//!
//! Both change what crosses the wire. The simulators price the same two
//! strategies as `netsim::SimShuffle`.
//!
//! ## Why grouped output stays identical (the determinism argument)
//!
//! Baseline reducers merge runs stably by source rank, so a key's values
//! arrive ordered by `(mapper rank, send order)`. An in-node leader inserts
//! relayed groups into its merge table by ascending member rank, and within
//! one member by relay order — which is spill-epoch order, the same order
//! the reducer's stable merge would have produced for those ranks. Leaders
//! themselves are visited by the reducer in ascending rank order. So
//! without a combiner the grouped byte stream each reducer emits is
//! bit-identical to baseline. With a combiner, members have already folded
//! per-epoch accumulators; the leader folds them once more (legal by the
//! Hadoop combiner contract: combine is associative and may run any number
//! of times), so identity holds at the reduced output rather than at the
//! raw value list. `tests/shuffle_identity.rs` checks exactly this split.

use crate::combine::Combiner;
use crate::compress;
use crate::config::{tags, MpidConfig, Role};
use crate::error::{MpidError, MpidResult};
use crate::kv::{CodecError, Key, Value};
use crate::pool::PoolCharge;
use crate::realign::{FrameReader, MARKER_LZ, MARKER_PLAIN};
use crate::sender::{realign_table, ByteTable, SpillOutput, SpillScratch, WireShop};
use bytes::{BufMut, Bytes, BytesMut};
use mpi_rt::{Comm, Rank};
use obs::ArgValue;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Which shuffle strategy a job runs (see the module docs). The simulators'
/// `netsim::SimShuffle` models the same two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShuffleKind {
    /// Ship every wire frame straight to its reducer (the paper's path).
    #[default]
    Baseline,
    /// Merge co-located mappers' spill runs on a per-host leader before
    /// framing; multi-mapper-per-host workloads ship pre-combined frames.
    InNodeCombine {
        /// Consecutive mapper ranks per simulated host (the combine group
        /// size). `1` degenerates to per-mapper re-framing.
        mappers_per_host: usize,
    },
}

impl ShuffleKind {
    /// Stable numeric tag for the `mpid.shuffle.strategy` counter.
    pub fn tag(&self) -> u64 {
        match self {
            ShuffleKind::Baseline => 0,
            ShuffleKind::InNodeCombine { .. } => 1,
        }
    }

    /// Short human label (bench tables, figserve flags).
    pub fn label(&self) -> &'static str {
        match self {
            ShuffleKind::Baseline => "baseline",
            ShuffleKind::InNodeCombine { .. } => "innode",
        }
    }

    /// Degenerate-parameter check, shared by [`MpidConfig::check`].
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ShuffleKind::InNodeCombine {
                mappers_per_host: 0,
            } => Err("shuffle: in-node combine needs mappers_per_host >= 1".into()),
            _ => Ok(()),
        }
    }
}

/// What the sender lends a strategy for one ship or flush call.
pub(crate) struct ShipCtx<'a> {
    pub(crate) comm: &'a Comm,
    pub(crate) cfg: &'a MpidConfig,
}

/// Per-sender totals a strategy hands back at flush, feeding the
/// `mpid.shuffle.*` counters.
#[derive(Debug, Default, Clone)]
pub(crate) struct ShuffleReport {
    /// [`ShuffleKind::tag`] of the strategy that ran.
    pub(crate) kind_tag: u64,
    /// Wire bytes that entered the strategy (what baseline would ship).
    pub(crate) wire_in: u64,
    /// Wire bytes actually shipped to reducers by this rank.
    pub(crate) wire_out: u64,
    /// Groups entering a leader's in-node merge (0 on members/baseline).
    pub(crate) host_groups_in: u64,
    /// Groups surviving the in-node merge.
    pub(crate) host_groups_out: u64,
}

/// The sender→wire policy seam: every spill's realigned output passes
/// through `ship`, and `flush` runs once before end-of-stream.
pub(crate) trait ShuffleStrategy<K: Key, V: Value> {
    /// Dispose of one spill's wire frames (ship, relay, or stash).
    fn ship(&mut self, ctx: &ShipCtx<'_>, out: SpillOutput) -> MpidResult<()>;
    /// Flush buffered state (in-node leaders drain members and re-ship
    /// here) and report totals. Called exactly once, before the sender's
    /// end-of-stream markers.
    fn flush(&mut self, ctx: &ShipCtx<'_>) -> MpidResult<ShuffleReport>;
}

/// Build the strategy for this rank from `cfg.shuffle`. Called lazily by
/// the sender at first spill (after `with_combiner`); non-mapper ranks
/// (which never ship) fall back to baseline.
pub(crate) fn build_strategy<K: Key, V: Value>(
    comm: &Comm,
    cfg: &MpidConfig,
    combiner: Option<Arc<dyn Combiner<V>>>,
) -> Box<dyn ShuffleStrategy<K, V>> {
    match cfg.shuffle {
        ShuffleKind::Baseline => Box::new(BaselineShip),
        ShuffleKind::InNodeCombine { mappers_per_host } => match Role::of(cfg, comm.rank()) {
            Role::Mapper(idx) => Box::new(InNodeShip::new(cfg, idx, mappers_per_host, combiner)),
            _ => Box::new(BaselineShip),
        },
    }
}

/// The shared reducer-bound send loop: frames go out in ascending partition
/// order on [`tags::DATA`].
fn ship_to_reducers(ctx: &ShipCtx<'_>, out: &SpillOutput) -> MpidResult<()> {
    for (p, wires) in &out.shipments {
        let dst = Role::reducer_rank(ctx.cfg, *p as usize);
        for wire in wires {
            // `Bytes` handles are refcounted; this clone is a pointer bump,
            // not a payload copy.
            ctx.comm.send_bytes(dst, tags::DATA, wire.clone())?;
        }
    }
    Ok(())
}

/// [`ShuffleKind::Baseline`]: the unmodified direct-ship path.
struct BaselineShip;

impl<K: Key, V: Value> ShuffleStrategy<K, V> for BaselineShip {
    fn ship(&mut self, ctx: &ShipCtx<'_>, out: SpillOutput) -> MpidResult<()> {
        ship_to_reducers(ctx, &out)
    }

    fn flush(&mut self, _ctx: &ShipCtx<'_>) -> MpidResult<ShuffleReport> {
        Ok(ShuffleReport::default())
    }
}

/// This mapper's place in its in-node combine group.
enum HostRole {
    /// Lowest rank of the group: stashes everything, merges at flush.
    Leader {
        own_rank: Rank,
        member_ranks: Vec<Rank>,
    },
    /// Relays frames to the leader instead of shipping them.
    Member { leader: Rank },
}

/// [`ShuffleKind::InNodeCombine`]: per-host combine stage in front of the
/// wire (see the module docs for the grouping and determinism argument).
struct InNodeShip<K: Key, V: Value> {
    role: HostRole,
    combiner: Option<Arc<dyn Combiner<V>>>,
    /// Leader only: stashed `(partition, wire frame)` runs per source rank,
    /// in relay (= spill-epoch) order.
    stash: BTreeMap<Rank, Vec<(u32, Bytes)>>,
    /// Stash bytes charged against the job's block pool.
    charge: PoolCharge,
    report: ShuffleReport,
    _kv: PhantomData<fn() -> (K, V)>,
}

impl<K: Key, V: Value> InNodeShip<K, V> {
    fn new(
        cfg: &MpidConfig,
        idx: usize,
        mappers_per_host: usize,
        combiner: Option<Arc<dyn Combiner<V>>>,
    ) -> Self {
        let g = mappers_per_host.max(1);
        let start = (idx / g) * g;
        let end = (start + g).min(cfg.n_mappers);
        let role = if idx == start {
            HostRole::Leader {
                own_rank: Role::mapper_rank(cfg, idx),
                member_ranks: (start + 1..end)
                    .map(|m| Role::mapper_rank(cfg, m))
                    .collect(),
            }
        } else {
            HostRole::Member {
                leader: Role::mapper_rank(cfg, start),
            }
        };
        InNodeShip {
            role,
            combiner,
            stash: BTreeMap::new(),
            charge: PoolCharge::new(cfg.pool.clone()),
            report: ShuffleReport {
                kind_tag: ShuffleKind::InNodeCombine { mappers_per_host }.tag(),
                ..ShuffleReport::default()
            },
            _kv: PhantomData,
        }
    }

    /// Decode one stashed/relayed wire frame and fold its groups into the
    /// leader's merge table.
    fn merge_frame(
        &mut self,
        table: &mut ByteTable<V>,
        src: Rank,
        part: u32,
        wire: &Bytes,
    ) -> MpidResult<()> {
        let codec_err = |err| MpidError::Codec {
            source_rank: src,
            err,
        };
        let inflated;
        let body: &[u8] = match wire.first() {
            Some(&MARKER_LZ) => {
                inflated = compress::decompress(&wire[1..]).map_err(codec_err)?;
                &inflated
            }
            Some(&MARKER_PLAIN) => &wire[1..],
            _ => return Err(codec_err(CodecError::Corrupt("unknown frame marker"))),
        };
        // Either group layout; what ships is laid out afresh from the table.
        let mut reader = FrameReader::new(body).map_err(codec_err)?;
        while let Some((key, values)) = reader.next_group::<K, V>().map_err(codec_err)? {
            self.report.host_groups_in += 1;
            for v in values {
                let (idx, inserted) = table.entry(&key, || part);
                match &self.combiner {
                    Some(c) => {
                        table.fold(idx, inserted, v, c.as_ref());
                    }
                    None => table.push_value(idx, &v),
                }
            }
        }
        Ok(())
    }
}

impl<K: Key, V: Value> ShuffleStrategy<K, V> for InNodeShip<K, V> {
    fn ship(&mut self, ctx: &ShipCtx<'_>, out: SpillOutput) -> MpidResult<()> {
        self.report.wire_in += out.wire_bytes;
        match &self.role {
            HostRole::Leader { own_rank, .. } => {
                // Stash own frames beside the relayed ones; the merge walks
                // sources in ascending rank order and the leader is the
                // lowest rank of its group.
                let own = *own_rank;
                for (p, wires) in out.shipments {
                    for wire in wires {
                        self.charge.grow(wire.len());
                        self.stash.entry(own).or_default().push((p, wire));
                    }
                }
            }
            HostRole::Member { leader } => {
                let leader = *leader;
                for (p, wires) in out.shipments {
                    for wire in wires {
                        // Relay payload: partition index, then the wire
                        // frame verbatim (marker byte included).
                        let mut payload = BytesMut::with_capacity(4 + wire.len());
                        payload.put_u32_le(p);
                        payload.put_slice(&wire);
                        ctx.comm.send_bytes(leader, tags::RELAY, payload.freeze())?;
                    }
                }
            }
        }
        Ok(())
    }

    fn flush(&mut self, ctx: &ShipCtx<'_>) -> MpidResult<ShuffleReport> {
        let member_ranks = match &self.role {
            HostRole::Member { leader } => {
                // End-of-relay marker: empty payload, like DATA's EOS.
                ctx.comm.send::<u8>(*leader, tags::RELAY, &[])?;
                return Ok(self.report.clone());
            }
            HostRole::Leader { member_ranks, .. } => member_ranks.len(),
        };
        // Drain every member's relay stream (their EOS is an empty
        // payload); per-pair FIFO makes "EOS seen" mean "stream complete".
        // Untimed: a member that dies aborts the universe, and this wait
        // with it.
        let mut awaiting = member_ranks;
        while awaiting > 0 {
            let (payload, status) = ctx.comm.recv_bytes_timeout(None, Some(tags::RELAY), None)?;
            if payload.is_empty() {
                awaiting -= 1;
                continue;
            }
            let codec_err = |err| MpidError::Codec {
                source_rank: status.source,
                err,
            };
            if payload.len() < 5 {
                return Err(codec_err(CodecError::Truncated));
            }
            let part = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
            if part as usize >= ctx.cfg.n_reducers {
                return Err(codec_err(CodecError::Corrupt("partition out of range")));
            }
            let wire = payload.slice(4..);
            self.report.wire_in += wire.len() as u64;
            self.charge.grow(wire.len());
            self.stash
                .entry(status.source)
                .or_default()
                .push((part, wire));
        }
        // Single-shot merge: sources ascending (BTreeMap order), frames in
        // relay order — the same (rank, epoch) order the reducer's stable
        // merge gives baseline runs.
        let t0 = ctx.comm.trace().map(|rt| rt.now_ns());
        let mut table: ByteTable<V> = ByteTable::new();
        let stash = std::mem::take(&mut self.stash);
        for (src, frames) in &stash {
            for (part, wire) in frames {
                self.merge_frame(&mut table, *src, *part, wire)?;
            }
        }
        drop(stash);
        // One-time flush scratch; this is teardown, not the per-spill path.
        let mut shop = WireShop::new();
        let mut scratch = SpillScratch::new();
        let out = realign_table::<K, V>(
            &table,
            ctx.cfg.n_reducers,
            ctx.cfg.frame_bytes,
            ctx.cfg.compress,
            &mut shop,
            &mut scratch,
        );
        self.report.host_groups_out += out.groups;
        self.report.wire_out += out.wire_bytes;
        self.charge.clear();
        if let (Some(rt), Some(t0)) = (ctx.comm.trace(), t0) {
            rt.complete_since(
                obs::names::SPAN_INNODE_COMBINE,
                obs::names::CAT_MPID_SHUFFLE,
                t0,
                vec![
                    ("groups_in", ArgValue::U64(self.report.host_groups_in)),
                    ("groups_out", ArgValue::U64(self.report.host_groups_out)),
                    ("wire_in", ArgValue::U64(self.report.wire_in)),
                    ("wire_out", ArgValue::U64(self.report.wire_out)),
                ],
            );
        }
        ship_to_reducers(ctx, &out)?;
        Ok(self.report.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_validation_rejects_degenerate_parameters() {
        assert!(ShuffleKind::Baseline.validate().is_ok());
        assert!(ShuffleKind::InNodeCombine {
            mappers_per_host: 2
        }
        .validate()
        .is_ok());
        assert!(ShuffleKind::InNodeCombine {
            mappers_per_host: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn kind_tags_and_labels_are_stable() {
        assert_eq!(ShuffleKind::Baseline.tag(), 0);
        assert_eq!(
            ShuffleKind::InNodeCombine {
                mappers_per_host: 4
            }
            .tag(),
            1
        );
        assert_eq!(ShuffleKind::default(), ShuffleKind::Baseline);
        assert_eq!(
            ShuffleKind::InNodeCombine {
                mappers_per_host: 2
            }
            .label(),
            "innode"
        );
    }

    /// A member that relays what no sender builds — a partition past the
    /// last reducer, a payload too short to hold one, a frame marker that
    /// does not exist — fails the leader's flush with a codec error naming
    /// the member: no panic, no hang.
    #[test]
    fn hostile_relay_payloads_are_codec_errors_naming_the_member() {
        use crate::realign::FrameBuilder;
        let mut b = FrameBuilder::new(1 << 10);
        b.push_group(&"k".to_string(), &[1u64]);
        let frame = [&[MARKER_PLAIN][..], &b.finish().pop().unwrap()].concat();
        let relay = |part: u32, wire: &[u8]| [&part.to_le_bytes()[..], wire].concat();
        let cases = [
            (
                relay(1, &frame),
                CodecError::Corrupt("partition out of range"),
            ),
            (vec![1, 2, 3], CodecError::Truncated),
            (
                relay(0, &[&[0x7f][..], &frame[1..]].concat()),
                CodecError::Corrupt("unknown frame marker"),
            ),
        ];
        let cfg = MpidConfig {
            n_mappers: 2,
            n_reducers: 1,
            shuffle: ShuffleKind::InNodeCombine {
                mappers_per_host: 2,
            },
            ..Default::default()
        };
        // Rank 1 is mapper 0, its host's leader; rank 2 is its member.
        for (payload, err) in cases {
            let (cfg, payload) = (cfg.clone(), Bytes::from(payload));
            let results = mpi_rt::Universe::run(3, move |comm| match comm.rank() {
                1 => {
                    let mut leader = InNodeShip::<String, u64>::new(&cfg, 0, 2, None);
                    let ctx = ShipCtx { comm, cfg: &cfg };
                    Some(leader.flush(&ctx).map(|_| ()))
                }
                2 => {
                    comm.send_bytes(1, tags::RELAY, payload.clone()).unwrap();
                    // The leader may have failed on the payload and be gone.
                    let _ = comm.send_bytes(1, tags::RELAY, Bytes::new());
                    None
                }
                _ => None,
            });
            let got = results.into_iter().flatten().next().unwrap();
            let want = MpidError::Codec {
                source_rank: 2,
                err,
            };
            assert_eq!(got, Err(want));
        }
    }
}
