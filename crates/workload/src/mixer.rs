//! The fleet workload mixer: deterministic per-tenant program and size
//! assignment.
//!
//! A fleet run draws each tenant's heap size from a Zipf-like
//! distribution over power-of-two buckets (most tenants are small, a
//! heavy tail is large — the shape Mesh and the SWCL work report for
//! multi-tenant arenas) and assigns it a workload family by weighted
//! pick. Both draws are pure functions of `(fleet seed, tenant index)`
//! via a splitmix64 hash, so any shard can materialize any tenant's spec
//! without coordination — the property that makes sharded simulation
//! byte-deterministic regardless of thread count.

use pcb_heap::Program;

use crate::tenant::{Family, TenantShape};

/// Relative weights of the four built-in families (need not sum to
/// anything in particular; all-zero is rejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixWeights {
    /// Steady-state churn tenants.
    pub churn: u32,
    /// Phased ramp tenants.
    pub ramp: u32,
    /// Synthetic trace-replay tenants.
    pub replay: u32,
    /// `P_F` adversary tenants.
    pub adversary: u32,
}

impl Default for MixWeights {
    /// Mostly benign traffic with a sliver of adversaries: 60% churn,
    /// 25% ramp, 10% replay, 5% adversary.
    fn default() -> Self {
        MixWeights {
            churn: 60,
            ramp: 25,
            replay: 10,
            adversary: 5,
        }
    }
}

impl MixWeights {
    fn as_array(&self) -> [u32; 4] {
        [self.churn, self.ramp, self.replay, self.adversary]
    }
}

/// Configuration for [`WorkloadMixer`].
#[derive(Debug, Clone, Copy)]
pub struct MixerConfig {
    /// Family weights.
    pub weights: MixWeights,
    /// Smallest tenant live bound `M` in words (power of two, ≥ 4).
    pub m_min: u64,
    /// Largest tenant live bound `M` in words (power of two, ≥ `m_min`).
    pub m_max: u64,
    /// Zipf exponent θ over the size buckets: P(bucket r) ∝ 1/(r+1)^θ,
    /// bucket 0 = `m_min`. θ = 0 is uniform; larger skews small.
    pub zipf_theta: f64,
    /// `log₂` of the maximum object size (clamped per tenant so the
    /// largest object always fits in `M`).
    pub log_n: u32,
    /// Compaction bound `c` for budgeted tenants.
    pub c: u64,
    /// Rounds per tenant program.
    pub rounds: u32,
    /// Allocation attempts per tenant round.
    pub allocs_per_round: usize,
    /// Fleet seed; every per-tenant draw derives from it.
    pub seed: u64,
}

impl Default for MixerConfig {
    /// Fleet-scale defaults: tenants of 256..=8192 words, θ = 1.1 skew,
    /// 12 rounds × 8 allocation attempts.
    fn default() -> Self {
        MixerConfig {
            weights: MixWeights::default(),
            m_min: 256,
            m_max: 8 * 1024,
            zipf_theta: 1.1,
            log_n: 6,
            c: 10,
            rounds: 12,
            allocs_per_round: 8,
            seed: 0xF1EE7,
        }
    }
}

/// Everything the fleet needs to know about one tenant, derived
/// deterministically from `(fleet seed, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant index in the fleet.
    pub index: u64,
    /// Index into [`WorkloadMixer::kinds`] of the assigned family.
    pub kind: usize,
    /// Size-bucket rank (0 = smallest bucket); the bucket fixes the
    /// tenant's `(M, log n, c)` (see [`WorkloadMixer::bucket_shape`]).
    pub size_rank: usize,
    /// The tenant's RNG seed.
    pub seed: u64,
}

/// Deterministic tenant→program assignment for a fleet.
#[derive(Debug)]
pub struct WorkloadMixer {
    cfg: MixerConfig,
    /// Cumulative family weights for the weighted pick.
    weight_cdf: [u64; 4],
    weight_total: u64,
    /// Cumulative Zipf mass per size bucket, scaled to `u64::MAX`.
    size_cdf: Vec<u64>,
}

/// splitmix64: the standard 64-bit finalizer-style mixer. Adjacent
/// tenant indices map to statistically independent streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl WorkloadMixer {
    /// Validates the configuration and precomputes the pick tables.
    ///
    /// # Errors
    ///
    /// Returns a message for degenerate configurations: non-power-of-two
    /// or out-of-order size range, all-zero weights, negative θ, zero
    /// rounds/allocs.
    pub fn new(cfg: MixerConfig) -> Result<Self, String> {
        if cfg.m_min < 4 || !cfg.m_min.is_power_of_two() {
            return Err(format!("m_min={} must be a power of two >= 4", cfg.m_min));
        }
        if cfg.m_max < cfg.m_min || !cfg.m_max.is_power_of_two() {
            return Err(format!(
                "m_max={} must be a power of two >= m_min={}",
                cfg.m_max, cfg.m_min
            ));
        }
        if !(cfg.zipf_theta >= 0.0 && cfg.zipf_theta.is_finite()) {
            return Err(format!("zipf_theta={} must be finite >= 0", cfg.zipf_theta));
        }
        if cfg.log_n == 0 || cfg.rounds == 0 || cfg.allocs_per_round == 0 {
            return Err("log_n, rounds and allocs_per_round must be positive".into());
        }
        let weights = cfg.weights.as_array();
        let weight_total: u64 = weights.iter().map(|&w| w as u64).sum();
        if weight_total == 0 {
            return Err("all mix weights are zero".into());
        }
        let mut weight_cdf = [0u64; 4];
        let mut acc = 0u64;
        for (slot, &w) in weight_cdf.iter_mut().zip(&weights) {
            acc += w as u64;
            *slot = acc;
        }
        // Zipf CDF over the K power-of-two buckets m_min, 2·m_min, …, m_max.
        let buckets = (cfg.m_max / cfg.m_min).trailing_zeros() as usize + 1;
        let masses: Vec<f64> = (0..buckets)
            .map(|r| 1.0 / ((r + 1) as f64).powf(cfg.zipf_theta))
            .collect();
        let total: f64 = masses.iter().sum();
        let mut size_cdf = Vec::with_capacity(buckets);
        let mut cum = 0.0;
        for mass in &masses {
            cum += mass / total;
            size_cdf.push((cum.min(1.0) * u64::MAX as f64) as u64);
        }
        // Guard against float rounding leaving the last edge short.
        *size_cdf.last_mut().expect("at least one bucket") = u64::MAX;
        Ok(WorkloadMixer {
            cfg,
            weight_cdf,
            weight_total,
            size_cdf,
        })
    }

    /// The mixer's configuration.
    pub fn config(&self) -> &MixerConfig {
        &self.cfg
    }

    /// Family names, indexed by [`TenantSpec::kind`].
    pub fn kinds(&self) -> Vec<&'static str> {
        Family::ALL.iter().map(|f| f.kind()).collect()
    }

    /// Number of size buckets (heat-map rows).
    pub fn size_buckets(&self) -> usize {
        self.size_cdf.len()
    }

    /// The `(M, log n, c)` every tenant of size bucket `rank` runs at:
    /// `M` doubles per bucket from `m_min`, and `log n` is clamped so the
    /// largest object fits with room to spare (`Params::new` requires
    /// `M > 2^log n`).
    pub fn bucket_shape(&self, rank: usize) -> (u64, u32, u64) {
        let m = self.cfg.m_min << rank;
        let log_n = self
            .cfg
            .log_n
            .min(m.trailing_zeros().saturating_sub(1))
            .max(1);
        (m, log_n, self.cfg.c)
    }

    /// Derives the spec of tenant `index` — a pure function of the fleet
    /// seed and the index.
    pub fn tenant(&self, index: u64) -> TenantSpec {
        let base = splitmix64(self.cfg.seed ^ splitmix64(index));
        let kind_draw = splitmix64(base ^ 0x1) % self.weight_total;
        let kind = self
            .weight_cdf
            .iter()
            .position(|&edge| kind_draw < edge)
            .expect("cdf covers the draw");
        let size_draw = splitmix64(base ^ 0x2);
        let size_rank = self
            .size_cdf
            .iter()
            .position(|&edge| size_draw <= edge)
            .expect("cdf ends at u64::MAX");
        TenantSpec {
            index,
            kind,
            size_rank,
            seed: splitmix64(base ^ 0x3),
        }
    }

    /// The family of a spec.
    pub fn family(&self, spec: &TenantSpec) -> Family {
        Family::ALL[spec.kind]
    }

    /// The [`TenantShape`] a spec instantiates with.
    pub fn shape(&self, spec: &TenantSpec) -> TenantShape {
        let (m, log_n, c) = self.bucket_shape(spec.size_rank);
        TenantShape {
            m,
            log_n,
            c,
            seed: spec.seed,
            rounds: self.cfg.rounds,
            allocs_per_round: self.cfg.allocs_per_round,
        }
    }

    /// Stamps out the tenant's program.
    pub fn instantiate(&self, spec: &TenantSpec) -> Box<dyn Program> {
        self.family(spec).instantiate(&self.shape(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixer() -> WorkloadMixer {
        WorkloadMixer::new(MixerConfig::default()).expect("default is valid")
    }

    #[test]
    fn specs_are_pure_functions_of_seed_and_index() {
        let a = mixer();
        let b = mixer();
        for index in [0u64, 1, 7, 12345, 999_999] {
            assert_eq!(a.tenant(index), b.tenant(index));
        }
        let other = WorkloadMixer::new(MixerConfig {
            seed: 1,
            ..MixerConfig::default()
        })
        .expect("valid");
        let differs = (0..64).any(|i| a.tenant(i) != other.tenant(i));
        assert!(differs, "fleet seed must matter");
    }

    #[test]
    fn zipf_skews_toward_small_tenants() {
        let m = mixer();
        let mut counts = vec![0usize; m.size_buckets()];
        for i in 0..10_000 {
            counts[m.tenant(i).size_rank] += 1;
        }
        assert!(
            counts[0] > counts[m.size_buckets() - 1] * 2,
            "bucket 0 ({}) should dominate the largest ({})",
            counts[0],
            counts[m.size_buckets() - 1]
        );
        assert!(counts.iter().all(|&c| c > 0), "every bucket is reachable");
    }

    #[test]
    fn weights_shape_the_family_distribution() {
        let m = mixer();
        let mut counts = [0usize; 4];
        for i in 0..10_000 {
            counts[m.tenant(i).kind] += 1;
        }
        // 60/25/10/5 weighting: churn must dominate, adversary be rare
        // but present.
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
        assert!(counts[3] > 0);
        let only_ramp = WorkloadMixer::new(MixerConfig {
            weights: MixWeights {
                churn: 0,
                ramp: 1,
                replay: 0,
                adversary: 0,
            },
            ..MixerConfig::default()
        })
        .expect("valid");
        assert!((0..100).all(|i| only_ramp.tenant(i).kind == 1));
    }

    #[test]
    fn log_n_is_clamped_so_params_stay_valid() {
        let m = WorkloadMixer::new(MixerConfig {
            m_min: 4,
            m_max: 1 << 14,
            log_n: 10,
            ..MixerConfig::default()
        })
        .expect("valid");
        for i in 0..1_000 {
            let shape = m.shape(&m.tenant(i));
            assert!(
                shape.m > 1 << shape.log_n,
                "largest object must fit: {shape:?}"
            );
            assert!(shape.log_n >= 1);
        }
    }

    #[test]
    fn every_spec_instantiates() {
        let m = mixer();
        for i in 0..64 {
            let spec = m.tenant(i);
            let program = m.instantiate(&spec);
            assert!(!program.name().is_empty());
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let base = MixerConfig::default();
        for bad in [
            MixerConfig { m_min: 3, ..base },
            MixerConfig {
                m_max: 128,
                m_min: 256,
                ..base
            },
            MixerConfig {
                zipf_theta: -1.0,
                ..base
            },
            MixerConfig {
                weights: MixWeights {
                    churn: 0,
                    ramp: 0,
                    replay: 0,
                    adversary: 0,
                },
                ..base
            },
            MixerConfig { rounds: 0, ..base },
        ] {
            assert!(WorkloadMixer::new(bad).is_err(), "{bad:?}");
        }
    }
}
