//! The per-layer ledger: every layer's self time, with the
//! instrumentation's own cost taken out, plus the figures the traced run
//! reports per layer.

use crate::probe::{Busy, Layer, Probe, SpaceReplay, LAYERS};
use crate::report::Metric;

/// The raw tallies of one traced pass over a heap workload (one `P_F`
/// run, or every tenant of a fleet).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeapPass {
    /// Wall time of the traced work, in nanoseconds.
    pub traced_ns: u64,
    /// Time per [`Layer`].
    pub busy: [Busy; LAYERS],
    /// Sum of the in-place clock-read samples, ns.
    pub clock_ns: u64,
    /// Number of clock-read samples.
    pub clock_samples: u64,
    /// `place` calls.
    pub places: u64,
    /// Referee-log records written by the engine's frees and placements.
    pub records: u64,
    /// Referee-log records written from inside `place`.
    pub relocation_records: u64,
    /// Referee time from the replay.
    pub space: SpaceReplay,
}

impl HeapPass {
    /// Adds one probe's tallies (its log must already be replayed).
    pub fn absorb(&mut self, probe: &Probe) {
        for (acc, busy) in self.busy.iter_mut().zip(probe.busy) {
            acc.add(busy);
        }
        self.clock_ns += probe.clock_ns;
        self.clock_samples += probe.clock_samples;
        self.places += probe.places;
        self.records += probe.records;
        self.relocation_records += probe.relocation_records;
    }

    /// Mean cost of one clock read, sampled in place, ns.
    pub fn read_ns(&self) -> f64 {
        if self.clock_samples == 0 {
            0.0
        } else {
            self.clock_ns as f64 / self.clock_samples as f64
        }
    }

    /// Cost of one timed call's instrumentation as corrected, ns: three
    /// clock reads, each at the cost sampled in place.
    pub fn call_ns(&self) -> f64 {
        3.0 * self.read_ns()
    }

    /// Splits the pass into layer self times (seconds). Each interval
    /// loses one clock read at the cost sampled in place (the third read
    /// of a call is the sample itself, charged to no layer); each log
    /// record loses `record_ns` from the layer it was written in; referee
    /// work replayed under `heap.space` leaves the layer that performed
    /// it (relocations the manager, frees and placements the engine).
    pub fn layers(&self, record_ns: f64) -> HeapLayers {
        let read = self.read_ns();
        let own = |busy: Busy| busy.ns as f64 - busy.intervals as f64 * read;
        let secs = |layer: Layer| own(self.busy[layer as usize]) / 1e9;
        let relocation_space = own(self.space.relocation);
        let engine_space = own(self.space.engine);
        let manager = self.busy[Layer::Manager as usize];
        let alloc = own(manager) - self.relocation_records as f64 * record_ns - relocation_space;
        let engine =
            own(self.busy[Layer::Engine as usize]) - self.records as f64 * record_ns - engine_space;
        let calls = |layer: Layer| self.busy[layer as usize].calls;
        HeapLayers {
            adversary: secs(Layer::Adversary),
            churn: secs(Layer::Churn),
            ramp: secs(Layer::Ramp),
            replay: secs(Layer::Replay),
            adversary_calls: calls(Layer::Adversary),
            workload_calls: calls(Layer::Churn) + calls(Layer::Ramp) + calls(Layer::Replay),
            alloc: alloc / 1e9,
            alloc_calls: manager.calls,
            places: self.places,
            space: (relocation_space + engine_space) / 1e9,
            space_ops: self.space.ops,
            engine: engine / 1e9,
        }
    }
}

/// Layer self times of one traced pass, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeapLayers {
    /// `pcb-adversary` (`P_F`, or adversary tenants).
    pub adversary: f64,
    /// Churn tenants.
    pub churn: f64,
    /// Ramp tenants.
    pub ramp: f64,
    /// Trace-replay tenants.
    pub replay: f64,
    /// Calls into the adversary.
    pub adversary_calls: u64,
    /// Calls into the workload families.
    pub workload_calls: u64,
    /// `pcb-alloc` managers, referee work inside relocations excluded.
    pub alloc: f64,
    /// Calls into the manager.
    pub alloc_calls: u64,
    /// `place` calls.
    pub places: u64,
    /// The `SpaceMap` referee (replayed).
    pub space: f64,
    /// `SpaceMap` operations.
    pub space_ops: u64,
    /// Everything else inside the traced work: the engine loop, the
    /// heap's object table and budget ledger.
    pub engine: f64,
}

impl HeapLayers {
    /// Sum of the layers.
    pub fn total(&self) -> f64 {
        self.adversary
            + self.churn
            + self.ramp
            + self.replay
            + self.alloc
            + self.space
            + self.engine
    }
}

/// Everything a traced run reports, one field per per-layer figure.
/// Layers a workload never enters stay 0: that is the measurement, not
/// a gap (the adversary takes no time in the search).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Heap-workload layers (zero on the search).
    pub heap: HeapLayers,
    /// Ghost words ÷ words moved.
    pub ghost_move_ratio: f64,
    /// Words moved ÷ words placed.
    pub moved_fraction: f64,
    /// Per-tenant construction (`mixer`, `try_build`), summed.
    pub fleet_build_s: f64,
    /// Median whole-tenant time (build, run, drop), µs.
    pub tenant_p50_us: f64,
    /// 99.9th-percentile whole-tenant time, µs.
    pub tenant_p999_us: f64,
    /// `fleet::run` wall minus every replica tenant's untraced time.
    pub aggregate_s: f64,
    /// BFS levels.
    pub levels: f64,
    /// Median level time, ms.
    pub level_p50_ms: f64,
    /// Slowest level, ms.
    pub level_max_ms: f64,
    /// Seen-set resident bytes per state.
    pub bytes_per_state: f64,
    /// Sum of the level times, seconds.
    pub levels_s: f64,
    /// Interner insert of an unseen state, ns.
    pub insert_new_ns: f64,
    /// Interner insert of a state already present, ns.
    pub insert_dup_ns: f64,
    /// Estimated interning time of the search, seconds.
    pub intern_s: f64,
    /// Traced over untraced wall, minus 1, in percent.
    pub overhead_pct: f64,
    /// Measured cost of one timed call's instrumentation (three clock
    /// reads), ns.
    pub clock_ns: f64,
    /// Untraced wall of the same work, seconds.
    pub untraced_s: f64,
}

/// Names and units of every per-layer metric, in report
/// order. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("adversary.self_s", "s"),
    ("adversary.calls", "count"),
    ("adversary.ns_per_call", "ns"),
    ("adversary.share", "%"),
    ("workload.self_s", "s"),
    ("workload.calls", "count"),
    ("workload.ns_per_call", "ns"),
    ("workload.share", "%"),
    ("workload.churn.self_s", "s"),
    ("workload.ramp.self_s", "s"),
    ("workload.replay.self_s", "s"),
    ("alloc.self_s", "s"),
    ("alloc.calls", "count"),
    ("alloc.ns_per_place", "ns"),
    ("alloc.share", "%"),
    ("alloc.ghost_move_ratio", "ratio"),
    ("alloc.moved_fraction", "ratio"),
    ("heap.space.self_s", "s"),
    ("heap.space.ops", "count"),
    ("heap.space.ns_per_op", "ns"),
    ("heap.space.share", "%"),
    ("heap.engine.self_s", "s"),
    ("heap.engine.share", "%"),
    ("core.fleet.build_s", "s"),
    ("core.fleet.tenant_p50_us", "us"),
    ("core.fleet.tenant_p999_us", "us"),
    ("core.fleet.aggregate_s", "s"),
    ("core.fleet.aggregate.share", "%"),
    ("core.exhaustive.levels", "count"),
    ("core.exhaustive.level_p50_ms", "ms"),
    ("core.exhaustive.level_max_ms", "ms"),
    ("core.exhaustive.bytes_per_state", "B/state"),
    ("core.exhaustive.intern.insert_new_ns", "ns"),
    ("core.exhaustive.intern.insert_dup_ns", "ns"),
    ("core.exhaustive.intern.share", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.clock_ns", "ns"),
    ("ledger.coverage_pct", "%"),
    ("failed_frac", "ratio"),
];

fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

impl Ledger {
    /// Sum of every layer's self time: the heap layers plus fleet
    /// construction and aggregation, or the search's level times.
    pub fn total_s(&self) -> f64 {
        self.heap.total() + self.fleet_build_s + self.aggregate_s + self.levels_s
    }

    /// The ledger as metrics, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let h = &self.heap;
        let total = self.total_s();
        let share = |s: f64| 100.0 * per(s, total);
        let workload = h.churn + h.ramp + h.replay;
        let values = [
            h.adversary,
            h.adversary_calls as f64,
            1e9 * per(h.adversary, h.adversary_calls as f64),
            share(h.adversary),
            workload,
            h.workload_calls as f64,
            1e9 * per(workload, h.workload_calls as f64),
            share(workload),
            h.churn,
            h.ramp,
            h.replay,
            h.alloc,
            h.alloc_calls as f64,
            1e9 * per(h.alloc, h.places as f64),
            share(h.alloc),
            self.ghost_move_ratio,
            self.moved_fraction,
            h.space,
            h.space_ops as f64,
            1e9 * per(h.space, h.space_ops as f64),
            share(h.space),
            h.engine,
            share(h.engine),
            self.fleet_build_s,
            self.tenant_p50_us,
            self.tenant_p999_us,
            self.aggregate_s,
            share(self.aggregate_s),
            self.levels,
            self.level_p50_ms,
            self.level_max_ms,
            self.bytes_per_state,
            self.insert_new_ns,
            self.insert_dup_ns,
            share(self.intern_s),
            self.overhead_pct,
            self.clock_ns,
            100.0 * per(total, self.untraced_s),
            // `failed_frac` is the whole run's; `Run::finish_ledger` sets it.
            0.0,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect()
    }
}
