//! Seeded arrival streams of heterogeneous jobs.
//!
//! A stream is generated up front from a single seed — Poisson-ish
//! interarrivals, a WordCount/sort/index/grep class mix, zipf-ish input
//! sizes (most jobs small, a heavy tail of large ones), and a tenant id per
//! job — so the *same* stream can be replayed against both stacks and every
//! scheduler. Sizes come from the shared [`workloads::SeededZipf`] sampler
//! (the same implementation behind the benches' `zipf_pairs`).

use desim::rng::SplitMix64;
use desim::SimTime;
use netsim::JobSpec;
use workloads::{grep_spec, index_spec, javasort_spec, wordcount_spec, SeededZipf};

/// The four application classes in the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobClass {
    /// Zipf-text word counting (paper Figure 5/6).
    WordCount,
    /// 100-byte-record sort (paper Figure 1 / Table I).
    Sort,
    /// Inverted-index construction.
    Index,
    /// Full-scan grep with near-empty output.
    Grep,
}

impl JobClass {
    /// Short class label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobClass::WordCount => "wordcount",
            JobClass::Sort => "sort",
            JobClass::Index => "index",
            JobClass::Grep => "grep",
        }
    }
}

/// One spec template per class, in `JobClass` declaration order. Ratios are
/// size-independent, so the templates are measured once per process
/// (`wordcount_spec` samples generated text, which is too slow to redo per
/// stream) and scaled per arrival.
fn templates() -> &'static [JobSpec; 4] {
    static TEMPLATES: std::sync::OnceLock<[JobSpec; 4]> = std::sync::OnceLock::new();
    TEMPLATES.get_or_init(|| {
        [
            wordcount_spec(1 << 30),
            javasort_spec(1 << 30),
            index_spec(1 << 30),
            grep_spec(1 << 30),
        ]
    })
}

/// One job submission: identity, timing, shape.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Stream-unique job id (submission order).
    pub id: u64,
    /// Submission time.
    pub at: SimTime,
    /// Application class.
    pub class: JobClass,
    /// Owning tenant.
    pub tenant: u32,
    /// The job's spec, scaled to its sampled input size.
    pub spec: JobSpec,
}

/// Shape of a generated stream.
#[derive(Debug, Clone)]
pub struct ArrivalConfig {
    /// Number of jobs.
    pub n_jobs: usize,
    /// Mean interarrival gap (exponentially distributed).
    pub mean_interarrival: SimTime,
    /// Tenants submitting jobs (ids `0..n_tenants`).
    pub n_tenants: u32,
    /// Smallest job input.
    pub min_bytes: u64,
    /// Sizes are `min_bytes << rank` with zipf-ranked `rank` in
    /// `0..=max_doublings` — most jobs minimal, a heavy tail up to
    /// `min_bytes << max_doublings`.
    pub max_doublings: usize,
}

impl ArrivalConfig {
    /// A light default: 64 MB–4 GB jobs from 3 tenants.
    pub fn new(n_jobs: usize, mean_interarrival: SimTime) -> Self {
        ArrivalConfig {
            n_jobs,
            mean_interarrival,
            n_tenants: 3,
            min_bytes: 64 << 20,
            max_doublings: 6,
        }
    }
}

/// Generate the stream for `seed`. Deterministic: the same `(seed, cfg)`
/// always yields the identical stream.
pub fn arrival_stream(seed: u64, cfg: &ArrivalConfig) -> Vec<Arrival> {
    assert!(cfg.n_tenants > 0, "need at least one tenant");
    assert!(cfg.min_bytes > 0, "jobs need input");
    let root = SplitMix64::new(seed);
    let mut gaps = root.derive("serve-interarrival");
    let mut classes = root.derive("serve-class");
    let mut tenants = root.derive("serve-tenant");
    let mut sizes = SeededZipf::new(seed ^ 0x5E12_F1A7, cfg.max_doublings + 1, 1.0);
    let templates = templates();

    let mut at = SimTime::ZERO;
    (0..cfg.n_jobs as u64)
        .map(|id| {
            // Exponential gap via inverse CDF; (1 - u) keeps ln's argument
            // nonzero.
            let u = gaps.next_f64();
            let gap = cfg.mean_interarrival.as_secs_f64() * -(1.0 - u).ln();
            at += SimTime::from_secs_f64(gap);
            // 40 % WordCount, 20 % each of the rest.
            let class = match classes.next_below(10) {
                0..=3 => JobClass::WordCount,
                4..=5 => JobClass::Sort,
                6..=7 => JobClass::Index,
                _ => JobClass::Grep,
            };
            let input_bytes = cfg.min_bytes << sizes.next_rank();
            let mut spec = templates[class as usize].clone();
            spec.input_bytes = input_bytes;
            Arrival {
                id,
                at,
                class,
                tenant: tenants.next_below(cfg.n_tenants as u64) as u32,
                spec,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ArrivalConfig {
        ArrivalConfig::new(64, SimTime::from_secs(10))
    }

    #[test]
    fn streams_replay_from_the_seed() {
        let a = arrival_stream(7, &cfg());
        let b = arrival_stream(7, &cfg());
        let c = arrival_stream(8, &cfg());
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.class, y.class);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.spec.input_bytes, y.spec.input_bytes);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.at != y.at));
    }

    #[test]
    fn stream_shape_is_plausible() {
        let s = arrival_stream(42, &cfg());
        // Arrivals are time-ordered and ids are the submission order.
        for w in s.windows(2) {
            assert!(w[0].at <= w[1].at);
            assert_eq!(w[0].id + 1, w[1].id);
        }
        // Sizes are powers-of-two multiples of min_bytes within the cap,
        // skewed small.
        let small = s
            .iter()
            .filter(|a| a.spec.input_bytes == cfg().min_bytes)
            .count();
        assert!(small > s.len() / 3, "only {small} minimal jobs");
        for a in &s {
            let doublings = (a.spec.input_bytes / cfg().min_bytes).trailing_zeros() as usize;
            assert!(doublings <= cfg().max_doublings);
            assert!(a.tenant < cfg().n_tenants);
        }
        // All four classes appear in a 64-job stream.
        for class in [
            JobClass::WordCount,
            JobClass::Sort,
            JobClass::Index,
            JobClass::Grep,
        ] {
            assert!(s.iter().any(|a| a.class == class), "{class:?} missing");
        }
    }
}
