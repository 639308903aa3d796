//! The process-global registry: one [`MetricsSnapshot`] behind a lock.
//!
//! Three metric kinds, all carried by exact integers so every merge is
//! commutative and associative:
//!
//! - **counters** — monotone sums,
//! - **gauges** — high-water marks,
//! - **histograms** — power-of-two sample distributions.
//!
//! Writers publish once per run (the engine's end-of-run totals, a
//! manager's own counters and histograms) or once per BFS level of the
//! exhaustive search, never per event, so a plain lock is all the
//! concurrency the registry needs. Because every fold is a
//! sum or a max, the snapshot depends only on what was recorded, not on
//! which thread recorded it: `PCB_THREADS=1` and `=8` produce
//! byte-identical snapshots for the same work.
//!
//! When the registry is disabled (the default) every recording call is
//! one relaxed atomic load and a branch. Only commands that export the
//! registry (`simulate` and `worst-case` with `--metrics-out`) turn it on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::hist::Histogram;
use crate::snapshot::MetricsSnapshot;

static ENABLED: AtomicBool = AtomicBool::new(false);

static REGISTRY: Mutex<MetricsSnapshot> = Mutex::new(MetricsSnapshot::new());

#[cold]
fn registry() -> MutexGuard<'static, MetricsSnapshot> {
    REGISTRY.lock().expect("metrics lock poisoned")
}

/// Turns metric collection on.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns metric collection off (recording calls become a single relaxed
/// load again). Already-recorded values are kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether metric collection is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `delta` to the named counter (creating it, even at 0).
#[inline]
pub fn add_counter(name: &'static str, delta: u64) {
    if enabled() {
        registry().add_counter(name, delta);
    }
}

/// Ratchets the named gauge up to `value`.
#[inline]
pub fn record_gauge_max(name: &'static str, value: u64) {
    if enabled() {
        registry().record_gauge_max(name, value);
    }
}

/// Records one sample into the named histogram.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        registry().observe(name, value);
    }
}

/// Folds a whole sequential [`Histogram`] into the named registry
/// histogram (how a manager publishes its per-request distributions at
/// the end of a run).
#[inline]
pub fn merge_histogram(name: &'static str, h: &Histogram) {
    if enabled() {
        registry().merge_histogram(name, h);
    }
}

/// A copy of everything recorded so far, metrics in name order.
pub fn snapshot() -> MetricsSnapshot {
    registry().clone()
}

/// Zeroes every recorded metric, keeping its name (an exposition after a
/// reset still lists it). For tests and benchmark harnesses that run
/// several measured phases in one process.
pub fn reset() {
    let mut registry = registry();
    let mut zeroed = MetricsSnapshot::new();
    for (name, _) in registry.counters() {
        zeroed.add_counter(name, 0);
    }
    for (name, _) in registry.gauges() {
        zeroed.record_gauge_max(name, 0);
    }
    for (name, _) in registry.histograms() {
        zeroed.merge_histogram(name, &Histogram::new());
    }
    *registry = zeroed;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so the enable/record/snapshot
    // tests share one #[test] to avoid cross-test interference under
    // the parallel test runner.
    #[test]
    fn registry_records_only_when_enabled() {
        disable();
        add_counter("test.hits", 100);
        record_gauge_max("test.peak", 100);
        observe("test.sizes", 100);

        enable();
        add_counter("test.hits", 2);
        add_counter("test.hits", 3);
        record_gauge_max("test.peak", 7);
        record_gauge_max("test.peak", 4);
        observe("test.sizes", 8);
        observe("test.sizes", 0);
        add_counter("test.hits", 1);
        record_gauge_max("test.peak", 9);
        observe("test.sizes", 8);

        let snap = snapshot();
        assert_eq!(snap.counter("test.hits"), 6);
        assert_eq!(snap.gauge("test.peak"), 9);
        let h = snap.histogram("test.sizes").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.max(), 8);

        let mut seq = Histogram::new();
        seq.record(1);
        seq.record(1);
        merge_histogram("test.sizes", &seq);
        assert_eq!(snapshot().histogram("test.sizes").unwrap().count(), 5);

        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("test.hits"), 0);
        assert_eq!(snap.gauge("test.peak"), 0);
        assert_eq!(snap.histogram("test.sizes").unwrap().count(), 0);
        disable();
        add_counter("test.hits", 1);
        assert_eq!(snapshot().counter("test.hits"), 0);
    }
}
