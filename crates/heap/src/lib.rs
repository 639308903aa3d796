//! Simulated heap substrate for the partial-compaction bounds of
//! **Cohen & Petrank, "Limitations of Partial Compaction: Towards Practical
//! Bounds" (PLDI 2013)**.
//!
//! The paper models memory management as an interaction between a *program*
//! that allocates/frees objects and a *memory manager* that places (and may
//! relocate) them, with the manager's total relocation work bounded by a
//! `1/c` fraction of all space allocated so far (a *c-partial* manager).
//! This crate implements that model executably:
//!
//! * [`Addr`]/[`Size`]/[`Extent`] — word-granularity geometry;
//! * [`SpaceMap`] — ground-truth occupancy (no word is ever double-booked);
//! * [`CompactionBudget`] — the exact c-partial ledger;
//! * [`Heap`] — object table, peak heap-size (`HS`) accounting;
//! * [`Program`]/[`MemoryManager`] — the two sides of the interaction;
//! * [`Execution`] — the round-based driver, with [`Event`] tracing.
//!
//! # Example
//!
//! Run a scripted program against a trivial manager and measure the heap:
//!
//! ```
//! use pcb_heap::{
//!     Addr, AllocRequest, Execution, Heap, HeapOps, MemoryManager, ObjectId,
//!     PlacementError, ScriptedProgram, Size,
//! };
//!
//! struct Bump(u64);
//! impl MemoryManager for Bump {
//!     fn name(&self) -> &str { "bump" }
//!     fn place(&mut self, req: AllocRequest, _ops: &mut HeapOps<'_, '_>)
//!         -> Result<Addr, PlacementError>
//!     {
//!         let a = Addr::new(self.0);
//!         self.0 += req.size.get();
//!         Ok(a)
//!     }
//!     fn note_free(&mut self, _: ObjectId, _: Addr, _: Size) {}
//! }
//!
//! let program = ScriptedProgram::new(Size::new(64)).round([], [16, 16]);
//! let mut exec = Execution::new(Heap::non_moving(), program, Bump(0));
//! let summary = exec.run_summary()?;
//! assert_eq!(summary.heap_size, 32);
//! # Ok::<(), pcb_heap::ExecutionError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod budget;
mod engine;
mod error;
mod event;
mod heap;
mod heatmap;
mod manager;
mod metrics;
mod object;
mod params;
mod program;
mod series;
mod space;
mod trace;

pub use pcb_chaos::{FaultPlan, FaultSite};

pub use addr::{Addr, Extent, Size};
pub use budget::CompactionBudget;
pub use engine::{ChaosCounters, Execution, HeapSummary, NullObserver};
pub use error::{ExecutionError, HeapError, SpaceError};
pub use event::{Event, Observer, Observers, Tick};
pub use heap::{Heap, HeapStats};
pub use heatmap::{heat_map, heat_map_rows};
pub use manager::{AllocRequest, HeapOps, MemoryManager, MirrorCheck, MoveOutcome, PlacementError};
pub use metrics::FragmentationSnapshot;
pub use object::{ObjectId, ObjectIdGen, ObjectRecord};
pub use params::{Params, ParamsError};
pub use program::{MoveResponse, Program, ScriptRound, ScriptedProgram};
pub use series::TimeSeries;
pub use space::{SpaceCounters, SpaceMap};
pub use trace::{Trace, TraceError, TraceEvent, TraceReader, TraceRecorder, TraceWriter};
