//! Deterministic fault-injection plans.
//!
//! The paper's bounds are statements about *every* execution of a
//! c-partial manager, including the unlucky ones: runs where the
//! allocator spuriously refuses, where the compaction budget shrinks
//! mid-flight, where a metadata mirror takes a bit-flip, where the
//! trace sink starts returning `EIO`, or where a tenant program
//! outright panics. A [`FaultPlan`] describes such a run as *data*: a
//! seed plus a parts-per-million firing rate for each named
//! [`FaultSite`]. Every decision is a pure function of
//! `(plan, site, index)` — no global state, no clock, no RNG object —
//! so a faulty run is exactly reproducible across thread counts and
//! checkpoint/resume boundaries.
//!
//! The empty plan is free: [`FaultPlan::should_fire`] reads one
//! array slot and returns before any hashing when the site's rate is
//! zero, the same "detached observer" discipline the tracing layer
//! uses. Harness code can therefore thread a plan unconditionally.
//!
//! ```
//! use pcb_chaos::{FaultPlan, FaultSite};
//!
//! let plan = FaultPlan::new(0xC4A05).with_rate(FaultSite::AllocRefusal, 250_000);
//! let fired: u32 = (0..1000).filter(|&i| plan.should_fire(FaultSite::AllocRefusal, i)).count() as u32;
//! assert!((150..350).contains(&fired), "~25% of decisions fire");
//! assert!(!plan.should_fire(FaultSite::TraceIo, 7), "other sites stay quiet");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::str::FromStr;

/// One million: rates are expressed in parts per million.
pub const PPM: u32 = 1_000_000;

/// splitmix64: the workspace's standard bit mixer (same constants as
/// the fleet's tenant mixer), giving every fault decision a full
/// 64-bit avalanche from its `(seed, site, index)` coordinates.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A named place in the stack where a fault can be injected.
///
/// Each site carries its own domain-separation salt, so firing
/// patterns at different sites are statistically independent even
/// under one shared seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The manager spuriously refuses an allocation that would have
    /// succeeded (indexed by allocation attempt).
    AllocRefusal,
    /// The compaction budget `c` is tightened mid-run (indexed by
    /// round).
    BudgetCut,
    /// A manager's free-space mirror takes a corrupting flip
    /// (indexed by round).
    MirrorFlip,
    /// The trace sink reports an I/O error (indexed by event).
    TraceIo,
    /// A tenant program panics mid-run (indexed by tenant).
    TenantPanic,
}

impl FaultSite {
    /// All sites, in declaration (and wire-format) order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::AllocRefusal,
        FaultSite::BudgetCut,
        FaultSite::MirrorFlip,
        FaultSite::TraceIo,
        FaultSite::TenantPanic,
    ];

    const fn index(self) -> usize {
        match self {
            FaultSite::AllocRefusal => 0,
            FaultSite::BudgetCut => 1,
            FaultSite::MirrorFlip => 2,
            FaultSite::TraceIo => 3,
            FaultSite::TenantPanic => 4,
        }
    }

    /// Domain-separation salt mixed into every decision at this site.
    const fn salt(self) -> u64 {
        match self {
            FaultSite::AllocRefusal => 0xA110_C8EF_0000_0001,
            FaultSite::BudgetCut => 0xB0D6_E7C0_0000_0002,
            FaultSite::MirrorFlip => 0x3172_20F1_0000_0003,
            FaultSite::TraceIo => 0x7245_CE10_0000_0004,
            FaultSite::TenantPanic => 0x7E4A_4770_0000_0005,
        }
    }

    /// The stable CLI / report name ("alloc-refusal", "budget-cut", …).
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::AllocRefusal => "alloc-refusal",
            FaultSite::BudgetCut => "budget-cut",
            FaultSite::MirrorFlip => "mirror-flip",
            FaultSite::TraceIo => "trace-io",
            FaultSite::TenantPanic => "tenant-panic",
        }
    }

    /// Looks a site up by its [`name`](FaultSite::name).
    pub fn by_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic fault schedule: a seed plus one firing rate
/// (parts per million) per [`FaultSite`].
///
/// `Copy + Eq + Hash`, like the rest of `RunConfig`: the plan is part
/// of a run's identity and participates in checkpoint fingerprints.
/// The default plan is empty and injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    seed: u64,
    rates: [u32; 5],
}

impl FaultPlan {
    /// An empty plan: no site ever fires. Identical to `Default`.
    #[must_use]
    pub const fn empty() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rates: [0; 5],
        }
    }

    /// A plan with the given seed and no rates set yet.
    #[must_use]
    pub const fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0; 5],
        }
    }

    /// Returns the plan with `site` firing at `ppm` parts per million
    /// (clamped to [`PPM`], i.e. "always").
    #[must_use]
    pub const fn with_rate(mut self, site: FaultSite, ppm: u32) -> FaultPlan {
        self.rates[site.index()] = if ppm > PPM { PPM } else { ppm };
        self
    }

    /// Returns the plan with a different seed (rates preserved).
    #[must_use]
    pub const fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Returns the plan reseeded for a sub-stream (e.g. one tenant of
    /// a fleet), so per-item firing patterns are independent of how
    /// items are batched across threads or resumed from checkpoints.
    #[must_use]
    pub fn fork(self, stream: u64) -> FaultPlan {
        FaultPlan {
            seed: splitmix64(self.seed ^ splitmix64(stream ^ 0xF02C_0000_0000_0001)),
            rates: self.rates,
        }
    }

    /// The plan's seed.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// The firing rate at `site`, in parts per million.
    #[must_use]
    pub const fn rate(&self, site: FaultSite) -> u32 {
        self.rates[site.index()]
    }

    /// True when no site can ever fire.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rates == [0; 5]
    }

    /// The fault decision for occurrence `index` at `site`.
    ///
    /// Zero-rate sites return `false` before any hashing — an empty
    /// plan costs one array load per call.
    #[inline]
    #[must_use]
    pub fn should_fire(&self, site: FaultSite, index: u64) -> bool {
        let rate = self.rates[site.index()];
        if rate == 0 {
            return false;
        }
        self.roll(site, index) < rate as u64
    }

    /// The raw decision roll in `[0, PPM)` — exposed so call sites can
    /// derive secondary deterministic choices (e.g. *which* word to
    /// corrupt) from the same coordinates.
    #[inline]
    #[must_use]
    pub fn roll(&self, site: FaultSite, index: u64) -> u64 {
        splitmix64(self.seed ^ site.salt() ^ splitmix64(index)) % PPM as u64
    }
}

impl fmt::Display for FaultPlan {
    /// Compact single-token form, round-tripped by [`FromStr`]:
    /// `seed=7,mirror-flip=1000,trace-io=50`. The empty plan prints
    /// as `off`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("off");
        }
        write!(f, "seed={}", self.seed)?;
        for site in FaultSite::ALL {
            let rate = self.rate(site);
            if rate > 0 {
                write!(f, ",{}={rate}", site.name())?;
            }
        }
        Ok(())
    }
}

/// A [`FaultPlan`] spec string that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultPlanError {
    detail: String,
}

impl fmt::Display for ParseFaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault plan: {} (expected `off` or `seed=<u64>,<site>=<ppm>,...` with sites: {})",
            self.detail,
            FaultSite::ALL.map(|s| s.name()).join(", ")
        )
    }
}

impl std::error::Error for ParseFaultPlanError {}

impl FromStr for FaultPlan {
    type Err = ParseFaultPlanError;

    fn from_str(s: &str) -> Result<FaultPlan, ParseFaultPlanError> {
        if s == "off" || s.is_empty() {
            return Ok(FaultPlan::empty());
        }
        let mut plan = FaultPlan::empty();
        for part in s.split(',') {
            let (key, value) = part.split_once('=').ok_or_else(|| ParseFaultPlanError {
                detail: format!("`{part}` is not `key=value`"),
            })?;
            if key == "seed" {
                plan.seed = value.parse().map_err(|_| ParseFaultPlanError {
                    detail: format!("seed `{value}` is not a u64"),
                })?;
                continue;
            }
            let site = FaultSite::by_name(key).ok_or_else(|| ParseFaultPlanError {
                detail: format!("unknown site `{key}`"),
            })?;
            let ppm: u32 = value.parse().map_err(|_| ParseFaultPlanError {
                detail: format!("rate `{value}` is not a u32 (parts per million)"),
            })?;
            plan = plan.with_rate(site, ppm);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires_and_is_default() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::empty());
        for site in FaultSite::ALL {
            for i in 0..64 {
                assert!(!plan.should_fire(site, i));
            }
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let a = FaultPlan::new(7).with_rate(FaultSite::MirrorFlip, 300_000);
        let b = FaultPlan::new(7).with_rate(FaultSite::MirrorFlip, 300_000);
        for i in 0..256 {
            assert_eq!(
                a.should_fire(FaultSite::MirrorFlip, i),
                b.should_fire(FaultSite::MirrorFlip, i)
            );
        }
    }

    #[test]
    fn sites_are_domain_separated() {
        // One seed, every site at 50%: the firing patterns must not
        // be identical across sites (salt separation works).
        let mut plan = FaultPlan::new(99);
        for site in FaultSite::ALL {
            plan = plan.with_rate(site, PPM / 2);
        }
        let patterns: Vec<Vec<bool>> = FaultSite::ALL
            .iter()
            .map(|&s| (0..128).map(|i| plan.should_fire(s, i)).collect())
            .collect();
        for i in 0..patterns.len() {
            for j in i + 1..patterns.len() {
                assert_ne!(patterns[i], patterns[j], "sites {i} and {j} collide");
            }
        }
    }

    #[test]
    fn rate_controls_frequency() {
        let plan = FaultPlan::new(1).with_rate(FaultSite::AllocRefusal, PPM / 10);
        let fired = (0..10_000)
            .filter(|&i| plan.should_fire(FaultSite::AllocRefusal, i))
            .count();
        assert!((800..1200).contains(&fired), "~10% expected, got {fired}");
        let always = FaultPlan::new(1).with_rate(FaultSite::TraceIo, PPM);
        assert!((0..100).all(|i| always.should_fire(FaultSite::TraceIo, i)));
    }

    #[test]
    fn rates_clamp_to_ppm() {
        let plan = FaultPlan::new(0).with_rate(FaultSite::BudgetCut, u32::MAX);
        assert_eq!(plan.rate(FaultSite::BudgetCut), PPM);
    }

    #[test]
    fn fork_changes_pattern_but_not_rates() {
        let base = FaultPlan::new(5).with_rate(FaultSite::AllocRefusal, PPM / 2);
        let a = base.fork(1);
        let b = base.fork(2);
        assert_eq!(a.rate(FaultSite::AllocRefusal), PPM / 2);
        let pa: Vec<bool> = (0..128)
            .map(|i| a.should_fire(FaultSite::AllocRefusal, i))
            .collect();
        let pb: Vec<bool> = (0..128)
            .map(|i| b.should_fire(FaultSite::AllocRefusal, i))
            .collect();
        assert_ne!(pa, pb, "forked streams must diverge");
        assert_eq!(base.fork(1), base.fork(1), "forking is deterministic");
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let plan = FaultPlan::new(42)
            .with_rate(FaultSite::MirrorFlip, 1000)
            .with_rate(FaultSite::TenantPanic, 77);
        let shown = plan.to_string();
        assert_eq!(shown, "seed=42,mirror-flip=1000,tenant-panic=77");
        assert_eq!(shown.parse::<FaultPlan>().unwrap(), plan);
        assert_eq!(FaultPlan::empty().to_string(), "off");
        assert_eq!("off".parse::<FaultPlan>().unwrap(), FaultPlan::empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!("nonsense".parse::<FaultPlan>().is_err());
        assert!("bogus-site=5".parse::<FaultPlan>().is_err());
        assert!("seed=notanumber".parse::<FaultPlan>().is_err());
        assert!("trace-io=".parse::<FaultPlan>().is_err());
        let err = "bogus-site=5".parse::<FaultPlan>().unwrap_err();
        assert!(err.to_string().contains("unknown site"), "{err}");
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::by_name(site.name()), Some(site));
        }
        assert_eq!(FaultSite::by_name("nope"), None);
    }
}
