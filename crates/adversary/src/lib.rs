//! The adversarial programs of **Cohen & Petrank, "Limitations of Partial
//! Compaction: Towards Practical Bounds" (PLDI 2013)**, as executable
//! [`pcb_heap::Program`]s, together with the paper's analysis machinery
//! (chunk association, the set `E`, the potential function `u(t)`) as
//! runtime-checkable state.
//!
//! * [`RobsonProgram`] — Robson's classic bad program `P_R` (Algorithm 2),
//!   which defeats every non-moving manager;
//! * [`PfProgram`] — the paper's program `P_F` (Algorithm 1): Robson
//!   stage I hardened with *ghost objects*, then density-controlled chunk
//!   fragmentation that defeats every c-partial manager;
//! * [`PfVariant`] — switches for the three improvements of Section 3.1,
//!   giving the POPL'11-style ablation baseline;
//! * [`Association`] — the object↔chunk association with half-object
//!   assignment and the incrementally maintained potential `u(t)`;
//! * [`waste_factor`]/[`optimal_rho`] — Theorem 1's bound `h(ρ; M, n, c)`.
//!
//! # Example
//!
//! Drive `P_F` against a compacting manager and compare the waste factor
//! with Theorem 1's bound:
//!
//! ```
//! use pcb_adversary::{optimal_rho, PfConfig, PfProgram};
//! use pcb_alloc::CompactingManager;
//! use pcb_heap::{Execution, Heap};
//!
//! let (m, log_n, c) = (1 << 12, 8, 10);
//! let cfg = PfConfig::new(m, log_n, c).expect("feasible parameters");
//! let mut exec = Execution::new(
//!     Heap::new(c),
//!     PfProgram::new(cfg),
//!     CompactingManager::new(c, m),
//! );
//! let summary = exec.run_summary()?;
//! // Theorem 1: every c-partial manager wastes at least h·M.
//! let (_, h) = optimal_rho(m, log_n, c).unwrap();
//! assert!(summary.waste_factor >= h * 0.9, "close to the bound at least");
//! # Ok::<(), pcb_heap::ExecutionError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod association;
mod math;
mod occupancy;
mod pf;
mod robson_program;

pub use association::Association;
pub use math::{
    optimal_rho, optimal_rho_memo, rho_feasible, stage1_alloc_fraction, stage2_alloc_fraction,
    waste_factor, SCALED_SLACK,
};
pub use occupancy::{
    choose_offset, first_occupying_word, is_f_occupying, offset_contribution, offset_score,
    OffsetTracker,
};
pub use pf::{PfConfig, PfProgram, PfVariant};
pub use robson_program::{RobsonProgram, StepSummary};
