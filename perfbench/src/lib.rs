//! The repository's benchmark: three workloads, end-to-end metrics from
//! untraced runs, and a per-layer ledger from separate traced runs that
//! time each layer from outside, through its public API.
//!
//! * `pf-compacting` — `P_F` against `pages-thm2` on one heap ([`pf`]);
//! * `fleet-mixed` — `fleet::run` over many small tenant heaps ([`fleet`]);
//! * `search-first-fit` — the exhaustive worst-case search ([`search`]).
//!
//! All load runs on one thread of one process. See `README.md` next to
//! this package for the metric list and the layer predictions.

pub mod check;
pub mod fleet;
pub mod ledger;
pub mod pf;
pub mod probe;
pub mod report;
pub mod search;

use std::fmt;
use std::time::Instant;

use check::Check;
use probe::{median, secs_since};
use report::{median_metrics, peak_rss_mb, Metric, Outcome, END_TO_END};

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `P_F` vs the Theorem-2 page manager.
    PfCompacting,
    /// A mixed fleet of tenant heaps against first-fit.
    FleetMixed,
    /// Exhaustive worst-case search, first-fit.
    SearchFirstFit,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PfCompacting,
        Workload::FleetMixed,
        Workload::SearchFirstFit,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PfCompacting => "pf-compacting",
            Workload::FleetMixed => "fleet-mixed",
            Workload::SearchFirstFit => "search-first-fit",
        }
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed (the fleet's mixer seed; the other two are
    /// deterministic and ignore it).
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Usage text for errors.
pub const USAGE: &str = "usage: perfbench --workload <pf-compacting|fleet-mixed|search-first-fit> \
                         [--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`; each may be
/// given once. Defaults: seed 1, 10 seconds, trace 0.
///
/// # Errors
///
/// A message naming the bad flag or value.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let slot_taken = match flag.as_str() {
            "--workload" => workload
                .replace(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
                .is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
                .is_some(),
            "--seconds" => seconds
                .replace(match value.parse::<u64>() {
                    Ok(s @ 1..=600) => s,
                    _ => return Err(format!("--seconds {value:?}: want a whole number 1..=600")),
                })
                .is_some(),
            "--trace" => trace
                .replace(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                })
                .is_some(),
            other => return Err(format!("unknown flag {other:?}")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Workload sizes. [`Sizes::FULL`] is what the benchmark measures; the
/// tests run the same code at tiny sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `pf-compacting`'s heap.
    pub pf: pf::PfSize,
    /// `fleet-mixed`'s fleet.
    pub fleet: fleet::FleetSize,
    /// `search-first-fit`'s search.
    pub search: search::SearchSize,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        pf: pf::FULL,
        fleet: fleet::FULL,
        search: search::FULL,
    };
}

/// A failure that leaves no result to report.
#[derive(Debug)]
pub enum RunError {
    /// The workload's inputs could not be built.
    Setup(String),
    /// A measurement could not be taken.
    Measure(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Setup(msg) => write!(f, "setup failed: {msg}"),
            RunError::Measure(msg) => write!(f, "measurement failed: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A run in progress: unit counts, result checks and metrics.
#[derive(Debug, Default)]
pub struct Run {
    /// Units attempted.
    pub attempted: u64,
    /// Units failed outside the result check (quarantined tenants).
    pub failed: u64,
    /// Result-check mismatches and run errors.
    pub check: Check,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Run {
    /// Records a run error: one failed unit.
    pub fn fail(&mut self, msg: String) {
        self.check.mismatches.push(msg);
    }

    /// Sets the metrics to the per-figure medians of the traced
    /// repetitions, with `failed_frac` reflecting the whole run.
    pub fn finish_ledger(&mut self, ledgers: Vec<Vec<Metric>>) {
        let failed_frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.metrics = median_metrics(&ledgers);
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == "failed_frac") {
            m.value = failed_frac;
        }
    }

    fn into_outcome(self) -> Outcome {
        Outcome {
            correct: self.check.passed() && self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics: self.metrics,
            mismatches: self.check.mismatches,
        }
    }
}

/// Calls `rep` until `seconds` have passed and at least `min_reps`
/// repetitions ran. A repetition that adds a check mismatch counts as
/// one failed unit.
///
/// # Errors
///
/// The first [`RunError`] a repetition returns.
pub fn repeat_for(
    run: &mut Run,
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(&mut Run) -> Result<(), RunError>,
) -> Result<(), RunError> {
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || secs_since(start) < seconds {
        let before = run.check.mismatches.len();
        rep(run)?;
        if run.check.mismatches.len() > before {
            run.failed += 1;
        }
        reps += 1;
    }
    Ok(())
}

/// A timer for one timed phase: wall-clock time, and the calling
/// thread's on-CPU time as the kernel's scheduler accounts it
/// (`/proc/thread-self/schedstat`). On a virtual machine the second
/// excludes time the host ran other guests instead of this one, which
/// the wall clock cannot tell from work.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

/// The calling thread's on-CPU time, ns.
///
/// # Errors
///
/// Fails where `/proc/thread-self/schedstat` is unreadable.
pub fn thread_cpu_ns() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("reading /proc/thread-self/schedstat: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .ok_or_else(|| format!("unexpected schedstat line {text:?}"))
}

impl Stopwatch {
    /// Starts both clocks.
    ///
    /// # Errors
    ///
    /// As for [`thread_cpu_ns`].
    pub fn start() -> Result<Stopwatch, RunError> {
        let cpu_ns = thread_cpu_ns().map_err(RunError::Measure)?;
        Ok(Stopwatch {
            wall: Instant::now(),
            cpu_ns,
        })
    }

    /// Wall and on-CPU seconds since [`start`](Self::start).
    ///
    /// # Errors
    ///
    /// As for [`thread_cpu_ns`].
    pub fn stop(self) -> Result<Times, RunError> {
        let wall = secs_since(self.wall);
        let cpu_ns = thread_cpu_ns().map_err(RunError::Measure)?;
        Ok((wall, cpu_ns.saturating_sub(self.cpu_ns) as f64 / 1e9))
    }
}

/// Wall and on-CPU seconds of one timed phase.
pub type Times = (f64, f64);

/// Per-repetition samples of an untraced run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up time per build, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed phase, seconds.
    pub wall_s: Vec<f64>,
    /// On-CPU time of each timed phase, seconds.
    pub cpu_s: Vec<f64>,
    /// Heap events (placed, freed, moved) per repetition.
    pub events: Vec<f64>,
    /// Tenants per repetition.
    pub tenants: Vec<f64>,
    /// Search states per repetition.
    pub states: Vec<f64>,
}

impl Samples {
    /// Records one successful repetition's times and unit counts. A
    /// workload without a unit passes 1 for it: the whole run is one.
    pub fn push(&mut self, (wall, cpu): Times, events: f64, tenants: f64, states: f64) {
        self.wall_s.push(wall);
        self.cpu_s.push(cpu);
        self.events.push(events);
        self.tenants.push(tenants);
        self.states.push(states);
    }

    /// The end-to-end metrics: the median set-up time, and the best
    /// repetition's wall time, CPU time and units per CPU second.
    ///
    /// Best, not median: on a shared host other guests only ever slow a
    /// repetition down, for stretches of seconds, so the fastest
    /// repetition is the steadiest estimate of what the program costs.
    ///
    /// # Errors
    ///
    /// Fails when no repetition succeeded or the peak resident set
    /// cannot be read.
    pub fn metrics(&self) -> Result<Vec<Metric>, RunError> {
        if self.wall_s.is_empty() {
            return Err(RunError::Measure("no repetition succeeded".into()));
        }
        let least = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
        let rate = |units: &[f64]| -> f64 {
            units
                .iter()
                .zip(&self.cpu_s)
                .map(|(u, s)| u / s)
                .fold(0.0, f64::max)
        };
        let values = [
            median(&self.setup_s),
            least(&self.wall_s),
            least(&self.cpu_s),
            rate(&self.events),
            rate(&self.tenants),
            rate(&self.states),
            peak_rss_mb().map_err(RunError::Measure)?,
        ];
        Ok(END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect())
    }
}

/// Builds a workload's inputs `samples` times, timing each sample over
/// `batch` back-to-back builds (for inputs too cheap to time one at a
/// time), and returns the last build. Earlier builds are dropped before
/// the next starts, so set-up never holds two copies at once.
///
/// # Errors
///
/// The first build error.
pub fn timed_setup<I>(
    samples: usize,
    batch: usize,
    mut build: impl FnMut() -> Result<I, String>,
    into: &mut Vec<f64>,
) -> Result<I, String> {
    let mut last = None;
    for _ in 0..samples.max(1) {
        drop(last.take());
        let start = Instant::now();
        for _ in 1..batch {
            drop(std::hint::black_box(build()?));
        }
        let inputs = build()?;
        into.push(secs_since(start) / batch.max(1) as f64);
        last = Some(inputs);
    }
    Ok(last.expect("at least one sample is built"))
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// [`RunError`] when there is no result to report.
pub fn run(opts: &Options, sizes: &Sizes) -> Result<Outcome, RunError> {
    let seconds = opts.seconds as f64;
    let run = match (opts.workload, opts.trace) {
        (Workload::PfCompacting, false) => pf::untraced(sizes.pf, seconds)?,
        (Workload::PfCompacting, true) => pf::traced(sizes.pf, seconds)?,
        (Workload::FleetMixed, false) => fleet::untraced(sizes.fleet, opts.seed, seconds)?,
        (Workload::FleetMixed, true) => fleet::traced(sizes.fleet, opts.seed, seconds)?,
        (Workload::SearchFirstFit, false) => search::untraced(sizes.search, seconds)?,
        (Workload::SearchFirstFit, true) => search::traced(sizes.search, seconds)?,
    };
    Ok(run.into_outcome())
}
