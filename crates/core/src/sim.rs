//! High-level simulation harness: run one program against one manager
//! on one heap and get a report comparing the measured heap against the
//! paper's bounds.
//!
//! The entry point is the [`Sim`] builder, the one code path that builds
//! and drives a single-heap run (`pcb simulate` and `pcb record` are thin
//! shells over it). It also carries the observability hooks: an external
//! [`Observer`] and a per-round [`TimeSeries`] can both be attached to
//! the same run. Manager counters go to the `pcb-metrics` registry when
//! it is on, like every other metric.

use core::fmt;

use pcb_adversary::{PfConfig, PfProgram, PfVariant, RobsonProgram};
use pcb_alloc::{BuildError, ManagerKind};
use pcb_chaos::FaultPlan;
use pcb_heap::{
    Execution, ExecutionError, Heap, HeapSummary, MemoryManager, Observer, Observers, Program,
    TimeSeries,
};
use pcb_workload::{Family, TenantShape};

use crate::params::Params;

/// Which program to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// The paper's `P_F` (Algorithm 1) with the given variant.
    Pf(PfVariant),
    /// Robson's `P_R` (Algorithm 2); meaningful against non-moving
    /// managers.
    Robson,
    /// A fleet tenant family instead of an adversary. `rounds` and
    /// `allocs` (allocations per round) default to the family's
    /// single-heap profile when `None`.
    Workload {
        /// The family.
        family: Family,
        /// Rounds to run.
        rounds: Option<u32>,
        /// Allocation attempts per round.
        allocs: Option<usize>,
    },
}

impl Adversary {
    /// The paper's full `P_F`.
    pub const PF: Adversary = Adversary::Pf(PfVariant::FULL);

    /// Whether the program relies on a c-partial heap even against a
    /// non-moving manager (`P_F` does; see [`ManagerKind::heap_c`]).
    fn needs_budget(self) -> bool {
        match self {
            Adversary::Pf(_) => true,
            Adversary::Robson => false,
            Adversary::Workload { family, .. } => family.needs_budget(),
        }
    }
}

/// A family's single-heap profile `(rounds, allocations per round)`:
/// churn's `typical` 200x64, ramp's 12 phases, replay's 24x32. The
/// adversary family runs `P_F`'s own schedule, or churn's profile where
/// it falls back to churn.
fn single_heap_profile(family: Family) -> (u32, usize) {
    match family {
        Family::Churn | Family::Adversary => (200, 64),
        Family::Ramp => (12, 64),
        Family::Replay => (24, 32),
    }
}

/// Outcome of one adversary-vs-manager simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The program's name, as [`Program::name`] gives it.
    pub program: String,
    /// The manager's name, as [`MemoryManager::name`] gives it.
    pub manager: String,
    /// The engine's summary of the run: `HS`, `HS / M`, the moved
    /// fraction and the operation counts.
    pub execution: HeapSummary,
    /// The bound the run is compared against, clamped to at least the
    /// trivial factor 1 (a heap can never use less than the live space).
    pub h: f64,
    /// The raw bound before clamping: Theorem 1's factor for `P_F`,
    /// Robson's for `P_R`, and the trivial 1 for a workload. Values below
    /// 1 mean the parameters are too weak for a non-trivial bound —
    /// information the clamped `h` erases.
    pub h_raw: f64,
    /// The density exponent `ρ` used (0 unless the program is `P_F`).
    pub rho: u32,
    /// Measured waste divided by the clamped bound `h` (≥ 1 certifies the
    /// lower bound empirically for this manager).
    pub waste_over_bound: f64,
    /// `s₁, s₂, q₁, q₂` (allocated / compacted words per stage; zeros
    /// unless the program is `P_F`).
    pub stage_words: [u64; 4],
    /// The final potential `u(t_finish)` in words, when tracked.
    pub final_potential: Option<i128>,
    /// Analysis violations recorded during a validated run.
    pub violations: Vec<String>,
    /// Per-round samples, when requested via [`Sim::series`].
    pub series: Option<TimeSeries>,
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {}: HS/M = {:.3} (bound h = {:.3}, ratio {:.3}), moved {:.4}",
            self.program,
            self.manager,
            self.execution.waste_factor,
            self.h,
            self.waste_over_bound,
            self.execution.moved_fraction
        )
    }
}

/// A configurable program-vs-manager simulation.
///
/// Replaces the old positional `run(params, adversary, manager, validate)`
/// call with named steps, and is the only way to attach observability:
///
/// ```
/// use partial_compaction::{sim, ManagerKind, Params};
/// let params = Params::new(1 << 13, 9, 15)?;
/// let report = sim::Sim::new(params)
///     .adversary(sim::Adversary::PF)
///     .manager(ManagerKind::Tlsf)
///     .validate(false)
///     .series(1)
///     .run()
///     .expect("runs");
/// assert!(report.waste_over_bound >= 0.9);
/// let series = report.series.expect("per-round series requested");
/// assert_eq!(series.len(), report.execution.rounds as usize);
/// # Ok::<(), partial_compaction::ParamsError>(())
/// ```
pub struct Sim<'a> {
    params: Params,
    adversary: Adversary,
    manager: ManagerKind,
    validate: bool,
    observer: Option<&'a mut dyn Observer>,
    series_every: Option<u32>,
    chaos: FaultPlan,
    paranoia: u32,
}

impl fmt::Debug for Sim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("params", &self.params)
            .field("adversary", &self.adversary)
            .field("manager", &self.manager)
            .field("validate", &self.validate)
            .field("observer", &self.observer.is_some())
            .field("series_every", &self.series_every)
            .field("chaos", &self.chaos)
            .field("paranoia", &self.paranoia)
            .finish()
    }
}

impl<'a> Sim<'a> {
    /// Starts configuring a simulation at the given parameters.
    /// Defaults: the paper's full `P_F` against first-fit, no validation,
    /// no observability.
    pub fn new(params: Params) -> Self {
        Sim {
            params,
            adversary: Adversary::PF,
            manager: ManagerKind::FirstFit,
            validate: false,
            observer: None,
            series_every: None,
            chaos: FaultPlan::empty(),
            paranoia: 0,
        }
    }

    /// Selects the program.
    pub fn adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Selects the manager.
    pub fn manager(mut self, manager: ManagerKind) -> Self {
        self.manager = manager;
        self
    }

    /// Enables the adversary's internal invariant validation (slower;
    /// populates [`SimReport::violations`]).
    pub fn validate(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Attaches an external observer; it receives every event alongside
    /// any internal collectors.
    pub fn observe(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Collects a per-round [`TimeSeries`] sampled every `every` rounds
    /// (0 is treated as 1) into [`SimReport::series`].
    pub fn series(mut self, every: u32) -> Self {
        self.series_every = Some(every);
        self
    }

    /// Attaches a deterministic fault schedule to the execution. The
    /// empty plan (the default) injects nothing at zero cost.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Cross-checks the manager's mirror against the space-map referee
    /// every `every` rounds (0, the default, disables paranoia mode).
    pub fn paranoia(mut self, every: u32) -> Self {
        self.paranoia = every;
        self
    }

    /// Applies a resolved [`RunConfig`](crate::RunConfig): carries over
    /// the chaos/paranoia knobs (a `Sim` runs on one thread, so the
    /// config's thread count does not apply here).
    pub fn config(self, run: &crate::RunConfig) -> Self {
        self.chaos(run.chaos).paranoia(run.paranoia)
    }

    /// The compaction bound of the heap this run gets, in the encoding
    /// of [`Heap::with_c`] (what a trace header records).
    pub fn heap_c(&self) -> u64 {
        self.manager
            .heap_c(self.adversary.needs_budget(), self.params.c())
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// Reports a manager that cannot serve the parameters, infeasible
    /// `P_F` parameters, and [`ExecutionError`]s (e.g. a manager that
    /// cannot serve a request).
    pub fn run(self) -> Result<SimReport, SimError> {
        let heap = Heap::with_c(self.heap_c());
        let Sim {
            params,
            adversary,
            manager,
            validate,
            observer,
            series_every,
            chaos,
            paranoia,
        } = self;
        let run = Setup {
            heap,
            manager: manager.try_build(&params).map_err(SimError::Manager)?,
            chaos,
            paranoia,
            observer,
            series_every,
        };
        match adversary {
            Adversary::Pf(variant) => {
                let mut cfg = PfConfig::new(params.m(), params.log_n(), params.c())
                    .map_err(SimError::Infeasible)?
                    .with_variant(variant);
                if validate {
                    cfg = cfg.with_validation();
                }
                let (rho, h_raw) = (cfg.rho, cfg.h);
                let (mut report, program) = run.drive(PfProgram::new(cfg), h_raw)?;
                report.rho = rho;
                report.stage_words = [
                    program.s1_words(),
                    program.s2_words(),
                    program.q1_words(),
                    program.q2_words(),
                ];
                report.final_potential = program.potential();
                report.violations = program.violations().to_vec();
                Ok(report)
            }
            Adversary::Robson => {
                let bound = RobsonProgram::robson_lower_bound(params.m(), params.log_n())
                    / params.m() as f64;
                let program = RobsonProgram::new(params.m(), params.log_n());
                Ok(run.drive(program, bound)?.0)
            }
            Adversary::Workload {
                family,
                rounds,
                allocs,
            } => {
                let (default_rounds, default_allocs) = single_heap_profile(family);
                let program = family.instantiate(&TenantShape {
                    m: params.m(),
                    log_n: params.log_n(),
                    c: params.c(),
                    seed: 0x5EED,
                    rounds: rounds.unwrap_or(default_rounds),
                    allocs_per_round: allocs.unwrap_or(default_allocs),
                });
                Ok(run.drive(program, 1.0)?.0)
            }
        }
    }
}

/// Everything a run needs besides its program.
struct Setup<'a> {
    heap: Heap,
    manager: Box<dyn MemoryManager>,
    chaos: FaultPlan,
    paranoia: u32,
    observer: Option<&'a mut dyn Observer>,
    series_every: Option<u32>,
}

impl Setup<'_> {
    /// Drives `program` to completion with the configured collectors and
    /// reports it against the bound `h_raw`; returns the program for its
    /// own readings. With nothing attached this is the engine's
    /// zero-cost unobserved path.
    fn drive<P: Program>(self, program: P, h_raw: f64) -> Result<(SimReport, P), SimError> {
        let mut exec = Execution::new(self.heap, program, self.manager)
            .with_chaos(self.chaos)
            .with_paranoia(self.paranoia);
        let mut series = self.series_every.map(|k| TimeSeries::new().every(k));
        let execution = if self.observer.is_none() && series.is_none() {
            exec.run_summary()
        } else {
            let mut bus = Observers::new();
            if let Some(s) = series.as_mut() {
                bus.attach(s);
            }
            if let Some(o) = self.observer {
                bus.attach(o);
            }
            exec.run_observed(&mut bus)
        }
        .map_err(SimError::Execution)?;
        // The trivial factor 1 is always attainable, so the bound the
        // measurement is held to is the clamped value; the raw h is
        // preserved separately.
        let h = h_raw.max(1.0);
        let report = SimReport {
            program: exec.program().name().to_owned(),
            manager: exec.manager().name().to_owned(),
            h,
            h_raw,
            rho: 0,
            waste_over_bound: execution.waste_factor / h,
            stage_words: [0; 4],
            final_potential: None,
            violations: Vec::new(),
            execution,
            series,
        };
        Ok((report, exec.into_parts().1))
    }
}

/// Errors from the simulation harness.
#[derive(Debug)]
pub enum SimError {
    /// The manager cannot serve the run's parameters.
    Manager(BuildError),
    /// The `P_F` parameters admit no feasible `ρ`.
    Infeasible(String),
    /// The underlying execution failed.
    Execution(ExecutionError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Manager(e) => write!(f, "{e}"),
            SimError::Infeasible(msg) => write!(f, "infeasible parameters: {msg}"),
            SimError::Execution(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Manager(e) => Some(e),
            SimError::Execution(e) => Some(e),
            SimError::Infeasible(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::TraceRecorder;

    fn small() -> Params {
        Params::new(1 << 14, 10, 20).unwrap()
    }

    fn sim(manager: ManagerKind) -> Sim<'static> {
        Sim::new(small()).manager(manager)
    }

    #[test]
    fn pf_run_produces_consistent_report() {
        let report = sim(ManagerKind::FirstFit).validate(true).run().unwrap();
        assert!(report.waste_over_bound >= crate::bounds::thm1::SCALED_SLACK);
        assert!(report.violations.is_empty());
        assert_eq!(
            report.execution.words_placed,
            report.stage_words[0] + report.stage_words[1]
        );
        assert!(report.final_potential.unwrap() <= report.execution.heap_size as i128);
        assert!(report.series.is_none());
        let display = report.to_string();
        assert!(display.contains("pf vs first-fit"));
    }

    #[test]
    fn robson_run_produces_consistent_report() {
        let report = sim(ManagerKind::BestFit)
            .adversary(Adversary::Robson)
            .run()
            .unwrap();
        assert!(report.waste_over_bound >= 1.0);
        assert_eq!(report.rho, 0);
        assert_eq!(report.execution.objects_moved, 0);
        assert!(report.h_raw > 1.0, "Robson's bound is non-trivial here");
    }

    #[test]
    fn infeasible_parameters_are_reported() {
        // c = 2 admits no rho (needs 2^rho <= 3c/4 = 1.5 with rho >= 1).
        let p = Params::new(1 << 14, 10, 2).unwrap();
        assert!(matches!(Sim::new(p).run(), Err(SimError::Infeasible(_))));
    }

    #[test]
    fn unbuildable_managers_are_errors_not_panics() {
        // The page manager's size-class table caps log n; the run must
        // say so through `SimError`, whichever program was asked for.
        let p = Params::new((1 << 46) + 1, 46, 10).unwrap();
        for adversary in [Adversary::PF, Adversary::Robson] {
            let err = Sim::new(p)
                .adversary(adversary)
                .manager(ManagerKind::PagesThm2)
                .run()
                .unwrap_err();
            assert!(
                err.to_string()
                    .starts_with("cannot build manager `pages-thm2`: max_order 46"),
                "{err}"
            );
        }
    }

    #[test]
    fn workload_families_run_on_the_heap_their_manager_gets() {
        let churn = Adversary::Workload {
            family: Family::Churn,
            rounds: Some(20),
            allocs: None,
        };
        let non_moving = sim(ManagerKind::FirstFit).adversary(churn);
        assert_eq!(non_moving.heap_c(), u64::MAX);
        let report = non_moving.run().unwrap();
        assert_eq!(report.program, "churn");
        assert_eq!(report.execution.rounds, 20);
        assert_eq!(report.execution.objects_moved, 0);
        assert_eq!((report.h, report.rho), (1.0, 0));
        // P_F needs the c-partial heap even against a non-moving manager.
        assert_eq!(sim(ManagerKind::FirstFit).heap_c(), 20);
        assert_eq!(sim(ManagerKind::FullCompaction).heap_c(), 0);
        assert_eq!(sim(ManagerKind::PagesThm2).adversary(churn).heap_c(), 20);
    }

    #[test]
    fn compacting_managers_get_budgeted_heaps() {
        let report = sim(ManagerKind::PagesThm2).run().unwrap();
        assert!(report.execution.moved_fraction <= 1.0 / 20.0 + 1e-12);
    }

    #[test]
    fn full_compaction_beats_the_bound_because_it_is_not_c_partial() {
        // The paper's contrast: with unlimited compaction the overhead
        // factor is ~1 against the very same adversary that forces h > 1
        // on every c-partial manager.
        let report = sim(ManagerKind::FullCompaction).run().unwrap();
        assert!(
            report.execution.waste_factor <= 1.05,
            "full compaction wastes {}",
            report.execution.waste_factor
        );
        assert!(
            report.execution.moved_fraction > 1.0 / 20.0,
            "it must have exceeded the c-partial budget to do so"
        );
        assert!(
            report.h > 1.5,
            "the c-partial bound it beats is non-trivial"
        );
    }

    #[test]
    fn config_carries_chaos_and_paranoia() {
        use crate::RunConfig;
        let run = RunConfig::default()
            .with_chaos("seed=3,mirror-flip=1000000".parse().unwrap())
            .with_paranoia(1);
        assert!(sim(ManagerKind::FirstFit).run().is_ok());
        let err = sim(ManagerKind::FirstFit).config(&run).run().unwrap_err();
        assert!(err.to_string().contains("mirror"), "{err}");
    }

    #[test]
    fn raw_h_preserves_the_infeasible_vs_trivial_distinction() {
        // At these tiny parameters Theorem 1's factor dips below 1; the
        // clamped h must be exactly 1 while h_raw keeps the real value.
        let p = Params::new(70, 5, 1000).unwrap();
        let report = Sim::new(p).run().unwrap();
        assert!(report.h_raw < 1.0, "h_raw = {}", report.h_raw);
        assert_eq!(report.h, 1.0);
        assert!((report.waste_over_bound - report.execution.waste_factor).abs() < 1e-12);
    }

    #[test]
    fn observers_and_series_attach_without_changing_results() {
        let baseline = sim(ManagerKind::FirstFit).run().unwrap();
        let mut recorder = TraceRecorder::new(small().c());
        let observed = Sim::new(small())
            .manager(ManagerKind::FirstFit)
            .observe(&mut recorder)
            .series(1)
            .run()
            .unwrap();
        assert_eq!(baseline.execution.heap_size, observed.execution.heap_size);
        assert_eq!(
            baseline.execution.words_placed,
            observed.execution.words_placed
        );
        assert!(!recorder.into_trace().is_empty());
        let series = observed.series.expect("series collected");
        assert_eq!(series.len(), observed.execution.rounds as usize);
        // HS is the peak of the span column.
        let peak = series.span().iter().copied().max().unwrap();
        assert_eq!(peak, observed.execution.heap_size);
    }
}
