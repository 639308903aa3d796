//! # partial-compaction
//!
//! A faithful, executable reproduction of **Cohen & Petrank, "Limitations
//! of Partial Compaction: Towards Practical Bounds" (PLDI 2013)** — the
//! theory of how much heap a memory manager must waste when its
//! defragmentation (compaction) work is bounded.
//!
//! A manager is *c-partial* if it never moves more than a `1/c` fraction
//! of all space allocated so far. The paper's main theorem gives a lower
//! bound that is meaningful at practical parameters: for a program with
//! 256 MB of live data and 1 MB maximum object size, a manager allowed to
//! move 1% of allocations needs a **3.5×** heap in the worst case.
//!
//! This crate is the façade over the whole reproduction:
//!
//! * [`bounds`] — every bound in the paper as evaluable formulas
//!   (Theorem 1 via [`bounds::thm1`], Theorem 2 via [`bounds::thm2`],
//!   plus the Robson and Bendersky–Petrank baselines);
//! * [`figures`] — the exact data series of the paper's Figures 1–3;
//! * [`sim`] — run the paper's adversarial programs against a suite of
//!   real allocators on a simulated heap and compare measured waste with
//!   the theory;
//! * [`fleet`] — simulate 10⁵–10⁷ independent tenant heaps with streaming
//!   aggregation ([`RunConfig`] carries the resolved run configuration
//!   through every entry point);
//! * re-exports of the three substrate crates: [`heap`]
//!   (the interaction model), [`alloc`] (nine memory
//!   managers), and [`adversary`] (the bad programs
//!   `P_R` and `P_F` with the paper's potential-function analysis).
//!
//! # Quickstart
//!
//! ```
//! use partial_compaction::{bounds, Params};
//!
//! // How much heap must ANY manager that moves at most 2% of
//! // allocations budget for, in the worst case?
//! let params = Params::new(1 << 28, 20, 50)?; // M = 256 MB, n = 1 MB
//! let factor = bounds::thm1::factor(params);
//! assert!((factor - 3.15).abs() < 0.05); // the paper's quoted 3.15x
//!
//! // And what suffices? Theorem 2's manager:
//! let upper = bounds::thm2::factor(params).unwrap();
//! assert!(upper >= factor);
//! # Ok::<(), partial_compaction::ParamsError>(())
//! ```
//!
//! Run an adversary against a real allocator (scaled-down parameters so
//! the doc test is quick):
//!
//! ```
//! use partial_compaction::{sim, ManagerKind, Params};
//!
//! let params = Params::new(1 << 14, 10, 20)?;
//! let report = sim::Sim::new(params)
//!     .adversary(sim::Adversary::PF)
//!     .manager(ManagerKind::BestFit)
//!     .run()
//!     .expect("simulation runs");
//! // The measured waste certifies the lower bound for this manager.
//! assert!(report.waste_over_bound >= 0.95);
//! # Ok::<(), partial_compaction::ParamsError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benchdiff;
pub mod bounds;
pub mod config;
pub mod exhaustive;
pub mod figures;
pub mod fleet;
pub mod parallel;
mod params;
pub mod plot;
pub mod progress;
pub mod reproduce;
pub mod sim;
pub mod sweep;

pub use config::RunConfig;
pub use parallel::{par_map, par_map_threads, thread_count};
pub use params::{Params, ParamsError};

pub use pcb_adversary as adversary;
pub use pcb_alloc as alloc;
pub use pcb_chaos as chaos;
pub use pcb_heap as heap;
pub use pcb_metrics as metrics;
pub use pcb_workload as workload;

// The most-used types, flattened for convenience.
pub use pcb_adversary::{PfConfig, PfProgram, PfVariant, RobsonProgram};
pub use pcb_alloc::ManagerKind;
pub use pcb_chaos::{FaultPlan, FaultSite};
pub use pcb_heap::{
    Execution, Heap, Observer, Observers, Recorder, Report, Size, StatSink, TimeSeries, TraceWriter,
};
