//! Typed run configuration, resolved once at the process boundary.
//!
//! A module that re-reads its own environment variable makes the
//! effective configuration of a run impossible to see in one place and
//! easy to desynchronize (a test that sets a variable races every other
//! test in the binary). [`RunConfig`] inverts that: the CLI (or a test)
//! resolves the environment **once**, optionally overrides fields from
//! flags, and threads the resulting value through `Sim`, the fleet
//! simulator, and the exhaustive search. `PCB_THREADS` remains the
//! fallback for code that never sees a `RunConfig` (library users calling
//! `par_map` directly).
//!
//! Every field changes how a run executes or what it collects, never
//! which data structures answer it: the referee and the manager indexes
//! have one implementation each, and their seed oracles live in the
//! lockstep tests.

use core::fmt;

use pcb_chaos::FaultPlan;

/// The resolved knobs of one run: worker threads, metrics collection,
/// and the chaos/paranoia settings.
///
/// Construct with [`RunConfig::from_env`] at the process boundary, then
/// override fields from CLI flags; every field is plain data, so the
/// value is `Copy` and freely shareable across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Worker threads for [`par_map_threads`](crate::parallel::par_map_threads)
    /// fan-outs (≥ 1).
    pub threads: usize,
    /// Deterministic fault schedule threaded into every execution the
    /// run creates; empty (the default) injects nothing at zero cost.
    pub chaos: FaultPlan,
    /// Cross-check manager mirrors against the ground truth every this
    /// many rounds; 0 (the default) disables paranoia mode.
    pub paranoia: u32,
    /// Whether the fleet builds its per-shard
    /// [`MetricsSnapshot`](pcb_metrics::MetricsSnapshot) into its
    /// accumulator, for `fleet --metrics-out` to write; the report never
    /// embeds it. The process-global registry has its own switch
    /// ([`pcb_metrics::enable`]), which only the commands that export it
    /// turn on.
    pub metrics: bool,
}

impl RunConfig {
    /// Resolves the configuration from the environment: `PCB_THREADS`
    /// (falling back to the machine's available parallelism); every other
    /// field starts at its default.
    pub fn from_env() -> Self {
        RunConfig {
            threads: crate::parallel::thread_count(),
            ..RunConfig::default()
        }
    }

    /// Overrides the thread count (values < 1 are clamped to 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the fault schedule.
    pub fn with_chaos(mut self, chaos: FaultPlan) -> Self {
        self.chaos = chaos;
        self
    }

    /// Overrides the paranoia cadence (0 disables).
    pub fn with_paranoia(mut self, paranoia: u32) -> Self {
        self.paranoia = paranoia;
        self
    }

    /// Overrides the metrics toggle.
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }
}

impl Default for RunConfig {
    /// Single-threaded, metrics off — the fully deterministic baseline
    /// used by tests and oracles.
    fn default() -> Self {
        RunConfig {
            threads: 1,
            chaos: FaultPlan::empty(),
            paranoia: 0,
            metrics: false,
        }
    }
}

impl fmt::Display for RunConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "threads={}", self.threads)?;
        // The chaos, paranoia and metrics knobs print only when set, so
        // the common display stays compact.
        if !self.chaos.is_empty() {
            write!(f, " chaos={}", self.chaos)?;
        }
        if self.paranoia != 0 {
            write!(f, " paranoia={}", self.paranoia)?;
        }
        if self.metrics {
            write!(f, " metrics=on")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_deterministic_baseline() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.threads, 1);
        assert!(!cfg.metrics);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = RunConfig::default().with_threads(4).with_metrics(true);
        assert_eq!(cfg.threads, 4);
        assert!(cfg.metrics);
        assert_eq!(RunConfig::default().with_threads(0).threads, 1);
    }

    #[test]
    fn from_env_produces_positive_threads() {
        // Whatever the ambient environment, the resolved value is usable.
        let cfg = RunConfig::from_env();
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn display_is_compact() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.to_string(), "threads=1");
    }

    #[test]
    fn display_names_the_metrics_knob_only_when_on() {
        let cfg = RunConfig::default().with_metrics(true);
        assert_eq!(cfg.to_string(), "threads=1 metrics=on");
    }

    #[test]
    fn display_names_the_chaos_knobs_only_when_set() {
        use pcb_chaos::FaultSite;
        let cfg = RunConfig::default()
            .with_chaos(FaultPlan::new(7).with_rate(FaultSite::TenantPanic, 50))
            .with_paranoia(8);
        assert_eq!(
            cfg.to_string(),
            "threads=1 chaos=seed=7,tenant-panic=50 paranoia=8"
        );
    }
}
