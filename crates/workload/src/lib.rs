//! Realistic (non-adversarial) mutator workloads for the
//! partial-compaction simulator.
//!
//! The bounds of Cohen & Petrank (PLDI 2013) are *worst-case*: "the lower
//! bounds we provide are for a worst-case scenario and they do not rule
//! out achieving a better behavior on a suite of benchmarks." This crate
//! supplies the benchmark side of that sentence:
//!
//! * [`ChurnWorkload`] — steady-state allocation/free churn with
//!   configurable size distributions ([`SizeDist`]) and lifetime models
//!   ([`Lifetime`]);
//! * [`RampWorkload`] — phased grow/release behaviour, optionally with
//!   escalating size scales that drift toward the adversarial regime;
//! * [`Family`] + [`WorkloadMixer`] — one closed enum over every tenant
//!   family (churn/ramp/replay/adversary) plus the deterministic
//!   per-tenant assignment, and each size bucket's `(M, log n, c)`, used
//!   by `pcb fleet`.
//!
//! Experiment E9 (`pcb figure 9`) uses these to measure how far typical
//! behaviour sits below the worst-case `h`.
//!
//! ```
//! use pcb_workload::{ChurnConfig, ChurnWorkload};
//! use pcb_alloc::ManagerKind;
//! use pcb_heap::{Execution, Heap};
//!
//! let cfg = ChurnConfig::typical(1 << 12, 6);
//! let manager = ManagerKind::FirstFit.build(&pcb_heap::Params::new(cfg.m, cfg.log_n, 10)?);
//! let mut exec = Execution::new(Heap::non_moving(), ChurnWorkload::new(cfg), manager);
//! let summary = exec.run_summary()?;
//! assert!(summary.waste_factor < 2.0, "typical churn is mild");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod churn;
mod dist;
mod mixer;
mod panic_inject;
mod ramp;
mod replay;
mod tenant;

pub use churn::{ChurnConfig, ChurnWorkload, Lifetime};
pub use dist::{SizeDist, SizeSampler};
pub use mixer::{MixWeights, MixerConfig, TenantSpec, WorkloadMixer};
pub use panic_inject::{PanicProgram, PANIC_MESSAGE_PREFIX};
pub use ramp::{RampConfig, RampWorkload};
pub use replay::TraceWorkload;
pub use tenant::{Family, TenantShape};
