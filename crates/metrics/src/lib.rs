//! # pcb-metrics — the workspace's one observability plane
//!
//! Two instrument kinds share one crate and one per-thread index:
//!
//! * **metrics** — counters, gauges, and power-of-two histograms,
//!   recorded through a process-global registry that costs a single
//!   relaxed atomic load when disabled (the default);
//! * **spans** — [`span!`] guards timing engine phases on per-thread
//!   tracks, drained by [`spans::take_trace`] into a Chrome trace or a
//!   [`spans::Profile`] (see [`mod@spans`]).
//!
//! Each has its own switch ([`enable`], [`spans::enable`]): span
//! collection retains every finished span until it is drained, a memory
//! cost a metrics-only run should not pay.
//!
//! ## Shard/merge model
//!
//! Every metric owns [`SHARDS`] cache-padded `u64` slots; each thread is
//! assigned one slot at first use and updates it with relaxed atomics.
//! A [`snapshot`] folds the slots with commutative, associative integer
//! operations — counters sum, gauges max, histogram buckets sum — so the
//! folded [`MetricsSnapshot`] depends only on *what* was recorded, never
//! on which thread recorded it or how many threads there were. That is
//! the same determinism contract the rest of the workspace keeps
//! (`PCB_THREADS` must not change report bytes), extended to metrics.
//!
//! ## Timing vs identity
//!
//! Snapshots deliberately carry no wall-clock values: everything in a
//! [`MetricsSnapshot`] is an exact integer derived from the simulated
//! run, so snapshots can be embedded in reports that are compared
//! byte-for-byte. Timing lives elsewhere: the heartbeat's stderr/JSONL
//! stream, the spans, and the benchmark (`perfbench`).
//!
//! ## Recording
//!
//! Hot call sites declare a static handle once and record through it:
//!
//! ```
//! use pcb_metrics::{Counter, Gauge, HistogramHandle};
//! static PLACED: Counter = Counter::new("engine.objects_placed");
//! static PEAK: Gauge = Gauge::new("engine.heap_size_words");
//! static SIZES: HistogramHandle = HistogramHandle::new("alloc.size");
//!
//! pcb_metrics::enable();
//! PLACED.add(1);
//! PEAK.record_max(96);
//! SIZES.observe(8);
//! let snap = pcb_metrics::snapshot();
//! assert!(snap.counter("engine.objects_placed") >= 1);
//! # pcb_metrics::disable();
//! ```
//!
//! Cold paths (end-of-run publication) can use the name-keyed
//! [`add_counter`]/[`record_gauge_max`]/[`observe`] functions instead.
//!
//! [`StatSink`] — the sequential per-run counter bag managers fill in
//! through `HeapOps` — lives here too, as a thin adapter whose
//! [`StatSink::publish`] folds into the same registry.

mod chrome;
mod hist;
mod profile;
mod registry;
mod sink;
mod snapshot;
pub mod spans;

pub use hist::{Histogram, HIST_BUCKETS};
pub use registry::{
    add_counter, disable, enable, enabled, merge_histogram, observe, record_gauge_max, reset,
    snapshot, Counter, Gauge, HistogramHandle, SHARDS,
};
pub use sink::StatSink;
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
