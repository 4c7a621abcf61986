//! Statistics reported by the MPI-D pipeline stages — the observability
//! hooks behind the ablation benchmarks (combiner on/off, spill thresholds,
//! frame sizes).

use crate::kv::{CodecError, Kv};

/// Mapper-side counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Pairs passed to `MPI_D_Send`.
    pub pairs_in: u64,
    /// Pairs folded away by the local combiner.
    pub pairs_combined: u64,
    /// Key groups written to partitions (post-combine).
    pub groups_out: u64,
    /// Buffer spills performed.
    pub spills: u64,
    /// Realigned frames shipped.
    pub frames: u64,
    /// Total wire bytes sent (after optional frame compression + marker).
    pub bytes_sent: u64,
    /// Total frame bytes before compression.
    pub bytes_precompress: u64,
}

impl SenderStats {
    /// Fraction of input pairs **surviving** local combining — the
    /// multiplier on the transmission quantity, *not* the fraction
    /// eliminated. This matches the workspace-wide `combine_ratio`
    /// convention (e.g. `netsim::JobSpec::combine_ratio = 0.012` means
    /// 1.2 % of WordCount's map output crosses the wire). `1.0` means the
    /// combiner folded nothing (or there is no combiner).
    pub fn combine_ratio(&self) -> f64 {
        if self.pairs_in == 0 {
            return 1.0;
        }
        1.0 - self.pairs_combined as f64 / self.pairs_in as f64
    }

    /// Merge counters from another mapper (for job-level totals).
    pub fn merge(&mut self, other: &SenderStats) {
        self.pairs_in += other.pairs_in;
        self.pairs_combined += other.pairs_combined;
        self.groups_out += other.groups_out;
        self.spills += other.spills;
        self.frames += other.frames;
        self.bytes_sent += other.bytes_sent;
        self.bytes_precompress += other.bytes_precompress;
    }
}

impl Kv for SenderStats {
    fn encode(&self, out: &mut bytes::BytesMut) {
        for v in [
            self.pairs_in,
            self.pairs_combined,
            self.groups_out,
            self.spills,
            self.frames,
            self.bytes_sent,
            self.bytes_precompress,
        ] {
            v.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(SenderStats {
            pairs_in: u64::decode(buf)?,
            pairs_combined: u64::decode(buf)?,
            groups_out: u64::decode(buf)?,
            spills: u64::decode(buf)?,
            frames: u64::decode(buf)?,
            bytes_sent: u64::decode(buf)?,
            bytes_precompress: u64::decode(buf)?,
        })
    }
    fn wire_size(&self) -> usize {
        7 * 8
    }
}

/// Reducer-side counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Frames received.
    pub frames: u64,
    /// Total frame bytes received.
    pub bytes_received: u64,
    /// Key groups parsed out of frames (pre-merge).
    pub groups_in: u64,
    /// Distinct keys delivered so far (in the streaming drain, groups — a
    /// key once per frame that carried it): counted as `recv()` hands each
    /// group out, so final once `recv()` has returned `None`.
    pub distinct_keys: u64,
}

/// Master-side counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Splits assigned to mappers.
    pub splits_assigned: u64,
    /// Split requests served (assignments + done replies).
    pub requests_served: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_ratio_bounds() {
        let mut s = SenderStats::default();
        assert_eq!(s.combine_ratio(), 1.0);
        s.pairs_in = 100;
        s.pairs_combined = 90;
        assert!((s.combine_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn combine_ratio_is_the_surviving_fraction() {
        // Pins the workspace convention: combine_ratio is what *remains*
        // after combining (a transmission multiplier), matching
        // netsim::JobSpec::combine_ratio. A perfect combiner → ratio → 0;
        // no combining → 1.0.
        let heavy = SenderStats {
            pairs_in: 1000,
            pairs_combined: 988,
            ..Default::default()
        };
        assert!((heavy.combine_ratio() - 0.012).abs() < 1e-12);
        let none = SenderStats {
            pairs_in: 500,
            pairs_combined: 0,
            ..Default::default()
        };
        assert_eq!(none.combine_ratio(), 1.0);
        // Ratios multiply onto byte volumes the same way JobSpec uses them:
        // surviving pairs ≈ pairs_in × combine_ratio.
        let surviving = heavy.pairs_in - heavy.pairs_combined;
        assert_eq!(
            (heavy.pairs_in as f64 * heavy.combine_ratio()).round() as u64,
            surviving
        );
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = SenderStats {
            pairs_in: 1,
            pairs_combined: 2,
            groups_out: 3,
            spills: 4,
            frames: 5,
            bytes_sent: 6,
            bytes_precompress: 7,
        };
        a.merge(&a.clone());
        assert_eq!(a.pairs_in, 2);
        assert_eq!(a.bytes_sent, 12);
        assert_eq!(a.bytes_precompress, 14);
    }
}
