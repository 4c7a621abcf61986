//! Workload description shared by the cluster-scale simulators.
//!
//! `hadoop-sim` and `mapred::sim` both execute a [`JobSpec`]: a compact,
//! volume-and-cost description of a MapReduce job. Real-mode engines execute
//! actual user code; the simulators execute this description. The
//! `workloads` crate derives a `JobSpec` from each benchmark application
//! (constants documented there, some measured from the real Rust
//! implementations on small samples).
//!
//! The job's shuffle strategy ([`SimShuffle`]) is priced here and only
//! here. Both simulators and both serve plans take two composed terms
//! from the spec and add only their own rounding and co-location count:
//!
//! * [`JobSpec::strategy_shuffle_bytes`] — reducer-input bytes of `input`
//!   map-input bytes when `colocated` map tasks share a host (post-combiner
//!   volume × `data_factor`); this is also what crosses the wire;
//! * [`JobSpec::innode_combine_ns`] — CPU of the in-node stage's extra
//!   combine pass (post-combiner volume × combine cost; 0 off in-node).

/// Shuffle strategy knob for the simulators — the cost-model mirror of the
/// real runtime's `mpid::ShuffleKind`.
///
/// The real data path implements these as `ShuffleStrategy` objects moving
/// actual bytes; the simulators apply the same strategies as one scalar
/// factor on the volume pipeline, [`SimShuffle::data_factor`]: how much of
/// the post-combine map output survives the strategy's *extra* combining
/// (in-node merge of co-located mappers' spills). This shrinks both wire
/// traffic and reducer input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimShuffle {
    /// Direct ship of each mapper's combined output (the current path).
    #[default]
    Baseline,
    /// Co-located map tasks merge their spills through one per-host combine
    /// stage before framing, so duplicate keys cross the wire once per host
    /// instead of once per mapper.
    InNodeCombine,
}

impl SimShuffle {
    /// Stable label for report tables and bench ids.
    pub fn label(&self) -> &'static str {
        match self {
            SimShuffle::Baseline => "baseline",
            SimShuffle::InNodeCombine => "innode",
        }
    }

    /// Fraction of the post-combine map output that survives in-node
    /// combining when `colocated` map tasks share a host.
    ///
    /// A single mapper's combiner already collapsed its *own* duplicates to
    /// `combine_ratio` of the raw output; what remains is modelled as
    /// `1 - combine_ratio` combinable (the per-split vocabularies of
    /// co-located mappers overlap) and `combine_ratio` incompressible
    /// residue. Merging `c` co-located spill sets therefore keeps
    /// `(1 - rho) + rho / c` of the bytes, `rho = 1 - combine_ratio`: a
    /// WordCount-like job (tiny `combine_ratio`) approaches a `c`× cut,
    /// a Sort-like job (`combine_ratio = 1`) gains nothing.
    pub fn data_factor(&self, colocated: usize, combine_ratio: f64) -> f64 {
        match self {
            SimShuffle::InNodeCombine => {
                let c = colocated.max(1) as f64;
                let rho = (1.0 - combine_ratio).clamp(0.0, 1.0);
                (1.0 - rho) + rho / c
            }
            SimShuffle::Baseline => 1.0,
        }
    }
}

/// Volume-and-cost description of a MapReduce job for simulation.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable workload name.
    pub name: String,
    /// Total input size in bytes.
    pub input_bytes: u64,
    /// Average input record size in bytes.
    pub record_bytes: u64,
    /// CPU time to run the user map function, per input byte (ns/byte).
    /// Includes record parsing. Calibrated for one core of the paper's
    /// 2.4 GHz Xeon E5620 running the era-appropriate Java stack.
    pub map_cpu_ns_per_byte: f64,
    /// Map output volume as a fraction of map input volume, before any
    /// combiner (WordCount ≈ 1.6: words become `<word, 1>` pairs with
    /// framing; JavaSort = 1.0).
    pub map_output_ratio: f64,
    /// Combiner output volume as a fraction of map output volume
    /// (WordCount ⟶ tiny: per-split vocabulary; 1.0 = no combiner).
    pub combine_ratio: f64,
    /// CPU time for the combiner per map-output byte (ns/byte); 0 if none.
    pub combine_cpu_ns_per_byte: f64,
    /// CPU time for the user reduce function per shuffled byte (ns/byte).
    pub reduce_cpu_ns_per_byte: f64,
    /// Final output volume as a fraction of reduce input volume.
    pub output_ratio: f64,
    /// Shuffle strategy of this job: the only strategy knob the simulators
    /// read.
    pub shuffle: SimShuffle,
}

impl JobSpec {
    /// Bytes of map output produced from `input` bytes of map input.
    pub fn map_output_bytes(&self, input: u64) -> u64 {
        ((input as f64) * self.map_output_ratio).round() as u64
    }

    /// Bytes shuffled (post-combiner) from `input` bytes of map input.
    pub fn shuffle_bytes(&self, input: u64) -> u64 {
        ((input as f64) * self.map_output_ratio * self.combine_ratio).round() as u64
    }

    /// Reducer-input bytes from `input` bytes of map input once the job's
    /// strategy has merged the spills of `colocated` map tasks per host
    /// ([`SimShuffle::data_factor`]). Unrounded: each caller rounds its own
    /// way.
    pub fn strategy_shuffle_bytes(&self, input: u64, colocated: usize) -> f64 {
        self.shuffle_bytes(input) as f64 * self.shuffle.data_factor(colocated, self.combine_ratio)
    }

    /// CPU ns of the in-node combine stage for `input` bytes of map input:
    /// one more combine pass over the post-combine output, 0 for every
    /// other strategy.
    pub fn innode_combine_ns(&self, input: u64) -> f64 {
        match self.shuffle {
            SimShuffle::InNodeCombine => {
                self.shuffle_bytes(input) as f64 * self.combine_cpu_ns_per_byte
            }
            SimShuffle::Baseline => 0.0,
        }
    }

    /// Bytes of final output produced from `shuffled` bytes of reduce input.
    pub fn output_bytes(&self, shuffled: u64) -> u64 {
        ((shuffled as f64) * self.output_ratio).round() as u64
    }

    /// Map CPU seconds for `input` bytes (map + combiner work).
    pub fn map_cpu_secs(&self, input: u64) -> f64 {
        let map = input as f64 * self.map_cpu_ns_per_byte;
        let comb = self.map_output_bytes(input) as f64 * self.combine_cpu_ns_per_byte;
        (map + comb) * 1e-9
    }

    /// Reduce CPU seconds for `shuffled` bytes of reduce input.
    pub fn reduce_cpu_secs(&self, shuffled: u64) -> f64 {
        shuffled as f64 * self.reduce_cpu_ns_per_byte * 1e-9
    }

    /// Basic sanity checks; call after construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.input_bytes == 0 {
            return Err("input_bytes must be nonzero".into());
        }
        if self.record_bytes == 0 {
            return Err("record_bytes must be nonzero".into());
        }
        for (label, v) in [
            ("map_cpu_ns_per_byte", self.map_cpu_ns_per_byte),
            ("map_output_ratio", self.map_output_ratio),
            ("combine_ratio", self.combine_ratio),
            ("combine_cpu_ns_per_byte", self.combine_cpu_ns_per_byte),
            ("reduce_cpu_ns_per_byte", self.reduce_cpu_ns_per_byte),
            ("output_ratio", self.output_ratio),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{label} must be finite and nonnegative, got {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            name: "test".into(),
            input_bytes: 1 << 30,
            record_bytes: 100,
            map_cpu_ns_per_byte: 100.0,
            map_output_ratio: 1.5,
            combine_ratio: 0.1,
            combine_cpu_ns_per_byte: 20.0,
            reduce_cpu_ns_per_byte: 50.0,
            output_ratio: 0.5,
            shuffle: SimShuffle::Baseline,
        }
    }

    #[test]
    fn volume_pipeline() {
        let s = spec();
        assert_eq!(s.map_output_bytes(1000), 1500);
        assert_eq!(s.shuffle_bytes(1000), 150);
        assert_eq!(s.output_bytes(150), 75);
    }

    #[test]
    fn cpu_costs() {
        let s = spec();
        // 1000 B × 100 ns + 1500 B × 20 ns = 130 µs.
        assert!((s.map_cpu_secs(1000) - 130e-6).abs() < 1e-12);
        assert!((s.reduce_cpu_secs(1000) - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut s = spec();
        assert!(s.validate().is_ok());
        s.map_output_ratio = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.input_bytes = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn shuffle_factors_model_the_strategies() {
        let b = SimShuffle::Baseline;
        assert_eq!(b.data_factor(8, 0.0), 1.0);

        // Fully combinable job on 4 co-located mappers: ~4x cut.
        let inn = SimShuffle::InNodeCombine;
        assert!((inn.data_factor(4, 0.0) - 0.25).abs() < 1e-12);
        // Sort-like job (nothing combines): no savings.
        assert_eq!(inn.data_factor(4, 1.0), 1.0);
        // One mapper per host degenerates to baseline volumes.
        assert_eq!(inn.data_factor(1, 0.0), 1.0);
    }
}
