//! Memory-manager implementations for the partial-compaction simulator.
//!
//! Every manager implements [`pcb_heap::MemoryManager`] and can be driven
//! by [`pcb_heap::Execution`] against any program, including the
//! adversaries of Cohen & Petrank (PLDI 2013) implemented in
//! `pcb-adversary`. The suite covers:
//!
//! * **classic non-moving policies** — [`FreeListManager`] (first/best/
//!   worst/next-fit), [`BuddyAllocator`], [`SegregatedManager`]: the
//!   victims of Robson's no-compaction lower bound;
//! * **bounded-fragmentation non-moving** — [`RobsonAllocator`], the
//!   lowest-aligned-fit discipline behind Robson's matching upper bound;
//! * **c-partial compacting managers** — [`CompactingManager`] (the
//!   `(c+1)·M` arena scheme of Bendersky & Petrank, POPL'11) and
//!   [`PageManager`] (a Theorem-2-style size-class/evacuation design).
//!
//! Use [`ManagerKind`] to instantiate managers uniformly:
//!
//! ```
//! use pcb_alloc::ManagerKind;
//! use pcb_heap::{Execution, Heap, Params, ScriptedProgram, Size};
//!
//! let program = ScriptedProgram::new(Size::new(64)).round([], [8, 8]);
//! let manager = ManagerKind::CompactingBp11.build(&Params::new(64, 5, 10)?);
//! let mut exec = Execution::new(Heap::new(10), program, manager);
//! let summary = exec.run_summary()?;
//! assert_eq!(summary.heap_size, 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buddy;
mod compacting;
mod freelist;
mod full_compact;
mod indexed;
mod pages;
mod policy;
mod registry;
mod robson;
mod segregated;
mod tlsf;

pub use buddy::{BuddyAllocator, BuddySelect};
pub use compacting::CompactingManager;
pub use freelist::{FitPolicy, FreeSpace};
pub use full_compact::FullCompactor;
pub use pages::{PageGeometryError, PageManager, SLOTS_PER_PAGE};
pub use policy::FreeListManager;
pub use registry::{BuildError, ManagerKind, ParseManagerKindError};
pub use robson::RobsonAllocator;
pub use segregated::SegregatedManager;
pub use tlsf::TlsfManager;

/// Publishes a counter a manager kept in a field, skipping zero: a
/// series appears in the metrics file once the event it counts happened.
fn publish_count(name: &'static str, value: u64) {
    if value > 0 {
        pcb_metrics::add_counter(name, value);
    }
}

/// Publishes a histogram a manager kept in a field, skipping an empty
/// one.
fn publish_samples(name: &'static str, samples: &pcb_metrics::Histogram) {
    if samples.count() > 0 {
        pcb_metrics::merge_histogram(name, samples);
    }
}
