//! The process-global sharded registry and its per-call-site handles.
//!
//! Three metric kinds, all carried by `u64` cells so every merge is an
//! exact integer operation:
//!
//! - **counters** — monotone sums (`fetch_add`),
//! - **gauges** — high-water marks (`fetch_max`),
//! - **histograms** — power-of-two sample distributions (per-bucket
//!   `fetch_add`).
//!
//! Each metric owns [`SHARDS`] cache-line-padded slots; a thread's slot
//! is its thread index (assigned at first use, and also its span track)
//! modulo [`SHARDS`], and it updates that slot with relaxed atomics, so
//! concurrent writers almost never contend. A snapshot folds the slots
//! together — and because every fold is a commutative,
//! associative integer operation, the folded value is independent of how
//! work was spread across threads: `PCB_THREADS=1` and `=8` produce
//! byte-identical snapshots for the same work.
//!
//! When the registry is disabled (the default) every recording call is
//! one relaxed atomic load and a branch, the same zero-cost-when-off
//! contract as span collection.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::hist::{Histogram, HIST_BUCKETS};
use crate::snapshot::MetricsSnapshot;

/// Slots per metric. Threads are assigned round-robin, so any thread
/// count is supported; 16 keeps contention negligible on every machine
/// the workspace targets while bounding per-metric memory at ~1 KiB.
pub const SHARDS: usize = 16;

static ENABLED: AtomicBool = AtomicBool::new(false);

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

/// One cache line per slot so two threads bumping neighbouring shards of
/// the same metric never ping-pong a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Sharded storage for one counter or gauge.
struct ValueCell {
    shards: [PaddedU64; SHARDS],
}

impl ValueCell {
    fn new() -> Self {
        ValueCell {
            shards: Default::default(),
        }
    }

    fn add(&self, delta: u64) {
        self.shards[shard()].0.fetch_add(delta, Ordering::Relaxed);
    }

    fn record_max(&self, value: u64) {
        self.shards[shard()].0.fetch_max(value, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn max(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Sharded storage for one histogram: per-shard bucket counts plus the
/// count/sum/max triple, all relaxed atomics.
struct HistShard {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [0u64; HIST_BUCKETS].map(AtomicU64::new),
        }
    }
}

struct HistCell {
    shards: [HistShard; SHARDS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            shards: Default::default(),
        }
    }

    fn observe(&self, value: u64) {
        let s = &self.shards[shard()];
        s.buckets[Histogram::bucket_of(value) as usize].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
        s.max.fetch_max(value, Ordering::Relaxed);
    }

    fn merge_histogram(&self, h: &Histogram) {
        let s = &self.shards[shard()];
        for (k, n) in h.bucket_counts().into_iter().enumerate() {
            if n != 0 {
                s.buckets[k].fetch_add(n, Ordering::Relaxed);
            }
        }
        s.count.fetch_add(h.count(), Ordering::Relaxed);
        s.sum.fetch_add(h.sum(), Ordering::Relaxed);
        s.max.fetch_max(h.max(), Ordering::Relaxed);
    }

    fn fold(&self) -> Histogram {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for s in &self.shards {
            for (k, b) in s.buckets.iter().enumerate() {
                buckets[k] += b.load(Ordering::Relaxed);
            }
            count += s.count.load(Ordering::Relaxed);
            sum = sum.saturating_add(s.sum.load(Ordering::Relaxed));
            max = max.max(s.max.load(Ordering::Relaxed));
        }
        let hi = buckets.iter().rposition(|&n| n != 0).map_or(0, |k| k + 1);
        Histogram::from_parts(count, sum, max, &buckets[..hi])
            .expect("folded shards are internally consistent")
    }

    fn reset(&self) {
        for s in &self.shards {
            for b in &s.buckets {
                b.store(0, Ordering::Relaxed);
            }
            s.count.store(0, Ordering::Relaxed);
            s.sum.store(0, Ordering::Relaxed);
            s.max.store(0, Ordering::Relaxed);
        }
    }
}

/// The interning maps. Cells are leaked so per-call-site handles can
/// cache a `&'static` pointer and never touch the lock again.
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static ValueCell>>,
    gauges: Mutex<BTreeMap<&'static str, &'static ValueCell>>,
    histograms: Mutex<BTreeMap<&'static str, &'static HistCell>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

fn intern_counter(name: &'static str) -> &'static ValueCell {
    let mut map = registry().counters.lock().expect("metrics lock poisoned");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(ValueCell::new())))
}

fn intern_gauge(name: &'static str) -> &'static ValueCell {
    let mut map = registry().gauges.lock().expect("metrics lock poisoned");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(ValueCell::new())))
}

fn intern_hist(name: &'static str) -> &'static HistCell {
    let mut map = registry().histograms.lock().expect("metrics lock poisoned");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(HistCell::new())))
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's index, assigned once at first use: the thread's
/// span track and, modulo [`SHARDS`], its metric shard.
pub(crate) fn thread_index() -> usize {
    THREAD_INDEX.with(|i| *i)
}

#[inline]
fn shard() -> usize {
    thread_index() % SHARDS
}

/// A counter handle for one call site: `static N: Counter =
/// Counter::new("engine.objects_placed");`. The cell lookup happens once
/// per site, after which recording is a shard-local `fetch_add`.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static ValueCell>,
}

impl Counter {
    /// A handle for the named counter (nothing is interned until the
    /// first enabled recording).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `delta`; a single relaxed load when the registry is off.
    #[inline]
    pub fn add(&self, delta: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| intern_counter(self.name))
                .add(delta);
        }
    }
}

/// A gauge handle: a high-water mark folded with `max`.
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<&'static ValueCell>,
}

impl Gauge {
    /// A handle for the named gauge.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Ratchets the gauge up to `value`; one relaxed load when off.
    #[inline]
    pub fn record_max(&self, value: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| intern_gauge(self.name))
                .record_max(value);
        }
    }
}

/// A histogram handle: samples land in power-of-two buckets.
pub struct HistogramHandle {
    name: &'static str,
    cell: OnceLock<&'static HistCell>,
}

impl HistogramHandle {
    /// A handle for the named histogram.
    pub const fn new(name: &'static str) -> Self {
        HistogramHandle {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records one sample; one relaxed load when off.
    #[inline]
    pub fn observe(&self, value: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| intern_hist(self.name))
                .observe(value);
        }
    }
}

/// Adds `delta` to the named counter without a cached handle (one map
/// lookup per call — for cold paths like end-of-run publication).
pub fn add_counter(name: &'static str, delta: u64) {
    if enabled() {
        intern_counter(name).add(delta);
    }
}

/// Ratchets the named gauge without a cached handle.
pub fn record_gauge_max(name: &'static str, value: u64) {
    if enabled() {
        intern_gauge(name).record_max(value);
    }
}

/// Records one sample into the named histogram without a cached handle.
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        intern_hist(name).observe(value);
    }
}

/// Folds a whole sequential [`Histogram`] into the named registry
/// histogram (used by the `StatSink` adapter at end of run).
pub fn merge_histogram(name: &'static str, h: &Histogram) {
    if enabled() {
        intern_hist(name).merge_histogram(h);
    }
}

/// Folds every metric's shards into a [`MetricsSnapshot`], metrics in
/// name order, shards in slot order. The result depends only on what was
/// recorded, not on which threads recorded it.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
    for (&name, cell) in registry()
        .counters
        .lock()
        .expect("metrics lock poisoned")
        .iter()
    {
        snap.add_counter(name, cell.sum());
    }
    for (&name, cell) in registry()
        .gauges
        .lock()
        .expect("metrics lock poisoned")
        .iter()
    {
        snap.record_gauge_max(name, cell.max());
    }
    for (&name, cell) in registry()
        .histograms
        .lock()
        .expect("metrics lock poisoned")
        .iter()
    {
        snap.merge_histogram(name, &cell.fold());
    }
    snap
}

/// Zeroes every registered metric (handles stay valid). For tests and
/// benchmark harnesses that run several measured phases in one process.
pub fn reset() {
    for cell in registry()
        .counters
        .lock()
        .expect("metrics lock poisoned")
        .values()
    {
        cell.reset();
    }
    for cell in registry()
        .gauges
        .lock()
        .expect("metrics lock poisoned")
        .values()
    {
        cell.reset();
    }
    for cell in registry()
        .histograms
        .lock()
        .expect("metrics lock poisoned")
        .values()
    {
        cell.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so the enable/record/snapshot
    // tests share one #[test] to avoid cross-test interference under
    // the parallel test runner.
    #[test]
    fn registry_records_only_when_enabled_and_folds_shards() {
        static HITS: Counter = Counter::new("test.hits");
        static PEAK: Gauge = Gauge::new("test.peak");
        static SIZES: HistogramHandle = HistogramHandle::new("test.sizes");

        disable();
        HITS.add(100);
        PEAK.record_max(100);
        SIZES.observe(100);

        enable();
        HITS.add(2);
        HITS.add(3);
        PEAK.record_max(7);
        PEAK.record_max(4);
        SIZES.observe(8);
        SIZES.observe(0);
        add_counter("test.hits", 1);
        record_gauge_max("test.peak", 9);
        observe("test.sizes", 8);

        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    HITS.add(10);
                    PEAK.record_max(5);
                    SIZES.observe(2);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        let snap = snapshot();
        assert_eq!(snap.counter("test.hits"), 46);
        assert_eq!(snap.gauge("test.peak"), 9);
        let h = snap.histogram("test.sizes").unwrap();
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 24);
        assert_eq!(h.max(), 8);

        let mut seq = Histogram::new();
        seq.record(1);
        seq.record(1);
        merge_histogram("test.sizes", &seq);
        assert_eq!(snapshot().histogram("test.sizes").unwrap().count(), 9);

        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("test.hits"), 0);
        assert_eq!(snap.gauge("test.peak"), 0);
        assert_eq!(snap.histogram("test.sizes").unwrap().count(), 0);
        disable();
        HITS.add(1);
        assert_eq!(snapshot().counter("test.hits"), 0);
    }
}
