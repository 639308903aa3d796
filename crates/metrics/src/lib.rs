//! # pcb-metrics — the workspace's one observability plane
//!
//! Two instrument kinds share one crate:
//!
//! * **metrics** — counters, gauges, and power-of-two histograms, folded
//!   into one process-global [`MetricsSnapshot`] behind a lock; every
//!   recording call costs a single relaxed atomic load when the registry
//!   is disabled (the default);
//! * **spans** — [`span!`] guards timing engine phases, folded per
//!   thread into one row per span name and, at thread exit or
//!   [`spans::flush`], into the same snapshot as the `span.` family (see
//!   [`mod@spans`]).
//!
//! Each has its own switch ([`enable`], [`spans::enable`]): spans read
//! the clock twice each, a cost a metrics-only run should not pay. There
//! is one store and one export, pcb-json ([`MetricsSnapshot`]'s
//! `ToJson`); the `--profile` table is [`spans::render_table`]'s view of
//! the `span.` family.
//!
//! ## Written once per run
//!
//! Nothing records into the registry per event. The engine publishes its
//! totals when a run ends, a manager publishes the counters and
//! histograms it kept in its own fields (recording a histogram sample
//! only while [`enabled`]), the exhaustive search records its gauges
//! once per BFS level, and a thread's spans fold in once, when it exits
//! or flushes. So a lock is all the concurrency the registry needs. Counters sum, gauges
//! max and histogram buckets sum, all commutative and associative, so the
//! [`snapshot`] depends only on *what* was recorded, never on which
//! thread recorded it or how many threads there were. That is the same
//! determinism contract the rest of the workspace keeps (`PCB_THREADS`
//! must not change report bytes), extended to metrics. The fleet never
//! turns the registry on: its snapshot is built from its finished
//! report.
//!
//! ## Timing vs identity
//!
//! Wall-clock values appear only in the `span.` family, and only while
//! spans are on: every other entry of a [`MetricsSnapshot`] is an exact
//! integer derived from the simulated run, so a snapshot taken with
//! spans off compares byte-for-byte across runs and thread counts. The
//! rest of the timing lives in the heartbeat's stderr/JSONL stream and
//! the benchmark (`perfbench`).
//!
//! ## Recording
//!
//! ```
//! pcb_metrics::enable();
//! pcb_metrics::add_counter("engine.objects_placed", 1);
//! pcb_metrics::record_gauge_max("engine.heap_size_words", 96);
//! pcb_metrics::observe("alloc.size", 8);
//! let snap = pcb_metrics::snapshot();
//! assert!(snap.counter("engine.objects_placed") >= 1);
//! # pcb_metrics::disable();
//! ```

mod hist;
mod registry;
mod snapshot;
pub mod spans;

pub use hist::{Histogram, HIST_BUCKETS};
pub use registry::{
    add_counter, disable, enable, enabled, merge_histogram, observe, record_gauge_max, reset,
    snapshot,
};
pub use snapshot::MetricsSnapshot;

/// Opens a span covering the rest of the enclosing scope; bind the result
/// or it closes immediately.
///
/// ```
/// let _span = pcb_metrics::span!("phase");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::spans::SpanGuard::enter($name)
    };
}
