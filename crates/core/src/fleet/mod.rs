//! Fleet-scale simulation: 10⁵–10⁷ independent tenant heaps, streamed.
//!
//! The paper's bounds are per-heap; the production question is what a
//! *population* of heaps looks like — millions of small arenas, each
//! tracking its own `HS/M` against the Theorem 1/2 curves (the scale at
//! which Mesh and the SWCL incremental-compaction work evaluate). This
//! module runs that population:
//!
//! * tenants are split into **contiguous shards**; each shard runs its
//!   tenants in index order and folds every per-tenant [`HeapSummary`]
//!   into a fixed-size [`FleetAccumulator`] — histograms and rollups,
//!   never per-tenant traces — so resident aggregation state is
//!   O(shards), not O(tenants);
//! * shards fan out across threads via
//!   [`par_map_threads`](crate::parallel::par_map_threads) and merge in
//!   shard order, so the aggregate report is **byte-identical for any
//!   thread count**: the shard count and every shard boundary come from
//!   [`FleetConfig`], never from the machine;
//! * each tenant's program, size and seed are pure functions of
//!   `(fleet seed, tenant index)` via the
//!   [`WorkloadMixer`], so any shard can
//!   materialize any tenant without coordination.
//!
//! The aggregate [`FleetReport`] carries the fleet-wide p50/p99/max
//! waste factor, per-family breakdowns, a size-bucket × waste heat-map
//! rollup, and — under fault injection — the quarantined
//! [`TenantFailure`]s. The `--metrics-out` snapshot is derived from it
//! after the run ([`FleetReport::metrics`]); no tenant is folded twice.
//!
//! # Fault isolation
//!
//! Every tenant executes behind a `catch_unwind` barrier: a panicking
//! tenant program (including one poisoned by the chaos `tenant-panic`
//! fault) or a typed engine failure is folded into the aggregate as a
//! [`TenantFailure`] instead of killing the shard. Failure counts are
//! exact; the retained failure records are capped so the aggregation
//! state stays O(shards). Because the panic site and round are pure
//! functions of `(chaos seed, tenant index)`, the failure section is
//! byte-identical for any thread count.
//!
//! # Checkpoint/resume
//!
//! Given [`CheckpointOptions`], [`run_with`] processes shards in chunks
//! and serializes the merged accumulator to a pcb-json checkpoint after
//! each chunk (see [`checkpoint`]); a resumed run continues from the
//! last completed chunk and produces a byte-identical report.

use core::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pcb_alloc::ManagerKind;
use pcb_chaos::FaultSite;
use pcb_heap::{Execution, Heap, HeapSummary, Program};
use pcb_json::{Json, ToJson};
use pcb_metrics::{Histogram, MetricsSnapshot};
use pcb_workload::{MixerConfig, PanicProgram, TenantSpec, WorkloadMixer};

use crate::bounds;
use crate::config::RunConfig;
use crate::parallel;
use crate::params::Params;
use crate::progress::{Heartbeat, ProgressOptions};

pub mod checkpoint;

pub use checkpoint::{CheckpointOptions, FleetOutcome};

/// Waste-factor histogram buckets: 256 buckets of width 1/32 covering
/// `[0, 8)`; the last bucket absorbs everything above.
const WASTE_BUCKETS: usize = 256;
/// Histogram buckets per unit of waste factor.
const WASTE_SCALE: f64 = 32.0;
/// Heat-map columns: 32 columns of width 1/4 covering the same `[0, 8)`.
const HEAT_COLS: usize = 32;
/// Heat-map glyphs from empty to hottest (the repo's standard ramp).
const GLYPHS: [char; 5] = ['_', '.', ':', '+', '#'];

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of tenant heaps.
    pub tenants: u64,
    /// Number of aggregation shards. Fixed by configuration — never by
    /// the thread count — because the shard boundaries are part of the
    /// deterministic result. More shards than tenants are clamped.
    pub shards: usize,
    /// The memory manager every tenant runs against.
    pub manager: ManagerKind,
    /// Per-tenant workload assignment.
    pub mixer: MixerConfig,
}

impl Default for FleetConfig {
    /// 100 000 tenants in 256 shards against first-fit, default mix.
    fn default() -> Self {
        FleetConfig {
            tenants: 100_000,
            shards: 256,
            manager: ManagerKind::FirstFit,
            mixer: MixerConfig::default(),
        }
    }
}

/// Errors from a fleet run.
#[derive(Debug)]
pub enum FleetError {
    /// The configuration is degenerate (zero tenants, bad mixer, invalid
    /// per-tenant parameters).
    Config(String),
    /// A checkpoint could not be written, read, or did not match the run.
    Checkpoint(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "invalid fleet configuration: {msg}"),
            FleetError::Checkpoint(msg) => write!(f, "fleet checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Retained failure records are capped at this many (counts stay exact),
/// so a high-fault-rate fleet cannot grow the aggregation state beyond
/// O(shards).
pub const MAX_FAILURE_RECORDS: usize = 32;

/// Injected panic messages and engine errors are truncated to this many
/// characters in a retained record.
const MAX_FAILURE_DETAIL: usize = 160;

/// Why a quarantined tenant failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The tenant's program or manager panicked; carries the (truncated)
    /// panic message.
    Panic(String),
    /// The engine returned a typed
    /// [`ExecutionError`](pcb_heap::ExecutionError); carries its
    /// (truncated) rendering.
    Engine(String),
}

impl FailureCause {
    /// Stable class name: `"panic"` or `"engine"`.
    pub fn name(&self) -> &'static str {
        match self {
            FailureCause::Panic(_) => "panic",
            FailureCause::Engine(_) => "engine",
        }
    }

    /// The captured detail message.
    pub fn detail(&self) -> &str {
        match self {
            FailureCause::Panic(msg) | FailureCause::Engine(msg) => msg,
        }
    }
}

/// One quarantined tenant failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantFailure {
    /// The failing tenant's index.
    pub tenant: u64,
    /// The tenant's workload family name.
    pub family: String,
    /// What happened.
    pub cause: FailureCause,
}

impl ToJson for TenantFailure {
    fn to_json(&self) -> Json {
        Json::object([
            ("cause", Json::from(self.cause.name())),
            ("detail", Json::from(self.cause.detail())),
            ("family", Json::from(self.family.as_str())),
            ("tenant", Json::from(self.tenant)),
        ])
    }
}

/// Streaming aggregation state: everything the fleet retains about the
/// tenants it has seen. Fixed-size (histograms and counters only), so a
/// shard's memory is independent of how many tenants it processes.
#[derive(Debug, Clone)]
pub struct FleetAccumulator {
    /// Tenants folded in.
    pub tenants: u64,
    /// Waste-factor histogram (bucket width 1/32, domain `[0, 8)`).
    pub waste_hist: Vec<u64>,
    /// Sum of waste factors (for the mean).
    pub waste_sum: f64,
    /// The maximum waste factor seen.
    pub max_waste: f64,
    /// The first (lowest-index) tenant attaining [`max_waste`](Self::max_waste).
    pub max_tenant: u64,
    /// Tenants per workload family.
    pub kind_counts: Vec<u64>,
    /// Waste-factor sum per workload family.
    pub kind_waste_sum: Vec<f64>,
    /// Heat map: `size_buckets × HEAT_COLS` tenant counts (row = tenant
    /// size bucket, column = waste factor in quarter-unit steps).
    pub heat: Vec<u64>,
    /// External-fragmentation words per workload family (hole words
    /// inside the span at peak `HS`).
    pub kind_external: Vec<u64>,
    /// Ghost words per workload family (moved-then-immediately-freed,
    /// the `P_F` discipline).
    pub kind_ghost: Vec<u64>,
    /// Internal-fragmentation words per workload family (manager-held
    /// words no request can use, e.g. empty page slots).
    pub kind_internal: Vec<u64>,
    /// Waste-factor sum per size bucket (pairs with
    /// [`bucket_tenants`](Self::bucket_tenants) for the per-bucket mean
    /// compared against the Theorem 1 curve).
    pub bucket_waste_sum: Vec<f64>,
    /// Tenants per size bucket.
    pub bucket_tenants: Vec<u64>,
    /// Per-tenant waste factors in milli-units (`HS/M × 1000`), as a
    /// power-of-two histogram: the one distribution the `--metrics-out`
    /// file carries that the waste histogram above cannot answer.
    pub waste_milli: Histogram,
    /// Per-tenant peak heap sizes in words.
    pub heap_size: Histogram,
    /// Total objects placed across the fleet.
    pub objects_placed: u64,
    /// Total words allocated across the fleet.
    pub words_placed: u64,
    /// Total words moved (compaction work) across the fleet.
    pub words_moved: u64,
    /// Tenants that failed and were quarantined (exact count).
    pub failed_tenants: u64,
    /// Quarantined failures that were panics (exact count).
    pub panics: u64,
    /// Quarantined failures that were typed engine errors (exact count).
    pub engine_failures: u64,
    /// The first [`MAX_FAILURE_RECORDS`] failures in tenant order.
    pub failures: Vec<TenantFailure>,
}

impl FleetAccumulator {
    fn new(kinds: usize, size_buckets: usize) -> Self {
        FleetAccumulator {
            tenants: 0,
            waste_hist: vec![0; WASTE_BUCKETS],
            waste_sum: 0.0,
            max_waste: f64::NEG_INFINITY,
            max_tenant: 0,
            kind_counts: vec![0; kinds],
            kind_waste_sum: vec![0.0; kinds],
            heat: vec![0; size_buckets * HEAT_COLS],
            kind_external: vec![0; kinds],
            kind_ghost: vec![0; kinds],
            kind_internal: vec![0; kinds],
            bucket_waste_sum: vec![0.0; size_buckets],
            bucket_tenants: vec![0; size_buckets],
            waste_milli: Histogram::new(),
            heap_size: Histogram::new(),
            objects_placed: 0,
            words_placed: 0,
            words_moved: 0,
            failed_tenants: 0,
            panics: 0,
            engine_failures: 0,
            failures: Vec::new(),
        }
    }

    /// Folds one tenant's summary in. Tenants must be recorded in index
    /// order within a shard (the merge relies on it for the max
    /// tie-break).
    fn record(&mut self, spec: &TenantSpec, summary: &HeapSummary) {
        self.tenants += 1;
        let waste = summary.waste_factor;
        let bucket = ((waste * WASTE_SCALE) as usize).min(WASTE_BUCKETS - 1);
        self.waste_hist[bucket] += 1;
        self.waste_sum += waste;
        if waste > self.max_waste {
            self.max_waste = waste;
            self.max_tenant = spec.index;
        }
        self.kind_counts[spec.kind] += 1;
        self.kind_waste_sum[spec.kind] += waste;
        let col = ((waste * HEAT_COLS as f64 / 8.0) as usize).min(HEAT_COLS - 1);
        self.heat[spec.size_rank * HEAT_COLS + col] += 1;
        self.kind_external[spec.kind] += summary.external_waste;
        self.kind_ghost[spec.kind] += summary.ghost_words;
        self.kind_internal[spec.kind] += summary.internal_waste;
        self.bucket_waste_sum[spec.size_rank] += waste;
        self.bucket_tenants[spec.size_rank] += 1;
        self.waste_milli.record(milli(waste));
        self.heap_size.record(summary.heap_size);
        self.objects_placed += summary.objects_placed;
        self.words_placed += summary.words_placed;
        self.words_moved += summary.words_moved;
    }

    /// Quarantines one tenant failure. Counts are always exact; the
    /// record itself is retained only while the cap has room, which —
    /// with tenants recorded in index order and shards merged in range
    /// order — keeps exactly the lowest-index failures.
    fn record_failure(&mut self, tenant: u64, family: &str, cause: FailureCause) {
        self.failed_tenants += 1;
        match cause {
            FailureCause::Panic(_) => self.panics += 1,
            FailureCause::Engine(_) => self.engine_failures += 1,
        }
        if self.failures.len() < MAX_FAILURE_RECORDS {
            self.failures.push(TenantFailure {
                tenant,
                family: family.to_string(),
                cause,
            });
        }
    }

    /// Merges a later shard's accumulator into this one. Shards must be
    /// merged in shard (= tenant-range) order; the strict `>` keeps the
    /// lowest-index tenant among equal maxima.
    ///
    /// Integer totals add with checked arithmetic, and each per-kind or
    /// per-bucket vector keeps its sum within `u64`; on overflow the
    /// field's name comes back and `self` is left partly merged. Only
    /// totals restored from a checkpoint can get there: 2⁶⁴ placed words
    /// is out of any run's reach.
    fn merge(&mut self, other: &FleetAccumulator) -> Result<(), &'static str> {
        let totals = [
            (&mut self.tenants, other.tenants, "tenants"),
            (
                &mut self.objects_placed,
                other.objects_placed,
                "objects_placed",
            ),
            (&mut self.words_placed, other.words_placed, "words_placed"),
            (&mut self.words_moved, other.words_moved, "words_moved"),
            (
                &mut self.failed_tenants,
                other.failed_tenants,
                "failed_tenants",
            ),
            (&mut self.panics, other.panics, "panics"),
            (
                &mut self.engine_failures,
                other.engine_failures,
                "engine_failures",
            ),
        ];
        for (into, from, key) in totals {
            *into = into.checked_add(from).ok_or(key)?;
        }
        let tallies: [(&mut [u64], &[u64], &'static str); 7] = [
            (&mut self.waste_hist, &other.waste_hist, "waste_hist"),
            (&mut self.kind_counts, &other.kind_counts, "kind_counts"),
            (&mut self.heat, &other.heat, "heat"),
            (
                &mut self.kind_external,
                &other.kind_external,
                "kind_external",
            ),
            (&mut self.kind_ghost, &other.kind_ghost, "kind_ghost"),
            (
                &mut self.kind_internal,
                &other.kind_internal,
                "kind_internal",
            ),
            (
                &mut self.bucket_tenants,
                &other.bucket_tenants,
                "bucket_tenants",
            ),
        ];
        for (into, from, key) in tallies {
            for (a, &b) in into.iter_mut().zip(from) {
                *a = a.checked_add(b).ok_or(key)?;
            }
            into.iter()
                .try_fold(0u64, |a, &b| a.checked_add(b))
                .ok_or(key)?;
        }
        let sums: [(&mut [f64], &[f64]); 2] = [
            (&mut self.kind_waste_sum, &other.kind_waste_sum),
            (&mut self.bucket_waste_sum, &other.bucket_waste_sum),
        ];
        for (into, from) in sums {
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        self.waste_sum += other.waste_sum;
        if other.max_waste > self.max_waste {
            self.max_waste = other.max_waste;
            self.max_tenant = other.max_tenant;
        }
        self.waste_milli.merge(&other.waste_milli);
        self.heap_size.merge(&other.heap_size);
        for failure in &other.failures {
            if self.failures.len() >= MAX_FAILURE_RECORDS {
                break;
            }
            self.failures.push(failure.clone());
        }
        Ok(())
    }

    /// The lower edge of the histogram bucket holding the `p`-quantile
    /// (`0 < p ≤ 1`) under the "nearest rank" definition. Exact for the
    /// max (use [`max_waste`](Self::max_waste) for that); quantiles are
    /// reported at 1/32 resolution.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.tenants == 0 {
            return 0.0;
        }
        let rank = ((p * self.tenants as f64).ceil() as u64).clamp(1, self.tenants);
        let mut seen = 0u64;
        for (bucket, &count) in self.waste_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket as f64 / WASTE_SCALE;
            }
        }
        (WASTE_BUCKETS - 1) as f64 / WASTE_SCALE
    }

    /// Resident bytes of this accumulator — the per-shard aggregation
    /// footprint (the O(shards) claim, made measurable). The two
    /// histograms are inline in the struct.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.waste_hist.capacity() * std::mem::size_of::<u64>()
            + self.kind_counts.capacity() * std::mem::size_of::<u64>()
            + self.kind_waste_sum.capacity() * std::mem::size_of::<f64>()
            + self.heat.capacity() * std::mem::size_of::<u64>()
            + (self.kind_external.capacity()
                + self.kind_ghost.capacity()
                + self.kind_internal.capacity()
                + self.bucket_tenants.capacity())
                * std::mem::size_of::<u64>()
            + self.bucket_waste_sum.capacity() * std::mem::size_of::<f64>()
    }
}

/// Waste factor in milli-units, floored at 0: the integer form the
/// histograms and gauges carry. Monotone, so it commutes with the max.
fn milli(waste: f64) -> u64 {
    (waste * 1000.0).max(0.0) as u64
}

/// The aggregate result of a fleet run. Every field is a deterministic
/// function of the [`FleetConfig`] and the run's chaos and paranoia
/// settings; nothing here depends on thread count or wall-clock.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Tenants simulated.
    pub tenants: u64,
    /// Shards used (after clamping to the tenant count).
    pub shards: usize,
    /// The manager every tenant ran against.
    pub manager: String,
    /// Workload family names, aligned with the per-kind vectors.
    pub kinds: Vec<&'static str>,
    /// Tenant live bounds per size bucket (heat-map rows).
    pub size_buckets: Vec<u64>,
    /// Median waste factor (1/32 resolution).
    pub p50_waste: f64,
    /// 99th-percentile waste factor (1/32 resolution).
    pub p99_waste: f64,
    /// Maximum waste factor (exact).
    pub max_waste: f64,
    /// The first tenant attaining the maximum.
    pub max_tenant: u64,
    /// Mean waste factor.
    pub mean_waste: f64,
    /// Theorem 1 lower-bound waste factor per size bucket, evaluated at
    /// each bucket's `(M, log n, c)` — the curve the measured per-bucket
    /// means are attributed against.
    pub bucket_thm1: Vec<f64>,
    /// Aggregation state resident across all shards, in bytes.
    pub resident_bytes: u64,
    /// The merged streaming state (histograms, rollups, totals).
    pub accumulator: FleetAccumulator,
}

impl FleetReport {
    /// Per-bucket mean waste factors (0 for empty buckets), aligned with
    /// [`size_buckets`](Self::size_buckets) and
    /// [`bucket_thm1`](Self::bucket_thm1).
    pub fn bucket_mean_waste(&self) -> Vec<f64> {
        self.accumulator
            .bucket_waste_sum
            .iter()
            .zip(&self.accumulator.bucket_tenants)
            .map(|(&sum, &count)| if count == 0 { 0.0 } else { sum / count as f64 })
            .collect()
    }

    /// The `fleet --metrics-out` snapshot, derived from the report: the
    /// per-family tenant counts, the placement and waste-attribution
    /// totals, the max-waste gauge, the two per-tenant histograms and
    /// the quarantine counts. A key appears exactly when a per-tenant
    /// fold would have created it: the success keys once any tenant
    /// succeeded (a family's count once that family has a success), a
    /// quarantine count once non-zero. Every value is an integer, so the
    /// snapshot is identical for any thread count.
    pub fn metrics(&self) -> MetricsSnapshot {
        let acc = &self.accumulator;
        let mut m = MetricsSnapshot::new();
        if acc.tenants > 0 {
            for (kind, &count) in self.kinds.iter().zip(&acc.kind_counts) {
                if count > 0 {
                    m.add_counter(format!("fleet.tenants.{kind}"), count);
                }
            }
            m.add_counter("fleet.objects_placed", acc.objects_placed);
            m.add_counter("fleet.words_placed", acc.words_placed);
            m.add_counter("fleet.words_moved", acc.words_moved);
            m.add_counter(
                "waste.external_words",
                acc.kind_external.iter().sum::<u64>(),
            );
            m.add_counter("waste.ghost_words", acc.kind_ghost.iter().sum::<u64>());
            m.add_counter(
                "waste.internal_words",
                acc.kind_internal.iter().sum::<u64>(),
            );
            m.record_gauge_max("fleet.max_waste_milli", milli(acc.max_waste));
            m.merge_histogram("fleet.waste_milli", &acc.waste_milli);
            m.merge_histogram("fleet.heap_size_words", &acc.heap_size);
        }
        for (cause, count) in [("panic", acc.panics), ("engine", acc.engine_failures)] {
            if count > 0 {
                m.add_counter(format!("chaos.quarantined.{cause}"), count);
            }
        }
        m
    }
    /// Renders the size × waste heat map as ASCII, one row per size
    /// bucket (largest tenants on top), columns spanning waste `[0, 8)`
    /// in quarter-unit steps, each cell shaded by tenant count relative
    /// to the row's maximum.
    pub fn heat_map(&self) -> String {
        let mut out = String::new();
        for (rank, &m) in self.size_buckets.iter().enumerate().rev() {
            let row = &self.accumulator.heat[rank * HEAT_COLS..(rank + 1) * HEAT_COLS];
            let peak = row.iter().copied().max().unwrap_or(0);
            out.push_str(&format!("{m:>9} |"));
            for &count in row {
                let glyph = if peak == 0 || count == 0 {
                    GLYPHS[0]
                } else {
                    match count as f64 / peak as f64 {
                        f if f < 0.25 => GLYPHS[1],
                        f if f < 0.5 => GLYPHS[2],
                        f if f < 1.0 => GLYPHS[3],
                        _ => GLYPHS[4],
                    }
                };
                out.push(glyph);
            }
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "{:>9}  0.0{}8.0  (waste factor HS/M)\n",
            "M (words)",
            " ".repeat(HEAT_COLS - 6)
        ));
        out
    }
}

impl ToJson for FleetReport {
    fn to_json(&self) -> Json {
        let acc = &self.accumulator;
        let attribution = Json::object([
            (
                "external_words",
                Json::from(acc.kind_external.iter().sum::<u64>()),
            ),
            (
                "ghost_words",
                Json::from(acc.kind_ghost.iter().sum::<u64>()),
            ),
            (
                "internal_words",
                Json::from(acc.kind_internal.iter().sum::<u64>()),
            ),
            (
                "kind_external",
                Json::array(acc.kind_external.iter().map(|&w| Json::from(w))),
            ),
            (
                "kind_ghost",
                Json::array(acc.kind_ghost.iter().map(|&w| Json::from(w))),
            ),
            (
                "kind_internal",
                Json::array(acc.kind_internal.iter().map(|&w| Json::from(w))),
            ),
        ]);
        Json::object([
            ("tenants", Json::from(self.tenants)),
            ("shards", Json::from(self.shards as u64)),
            ("manager", Json::from(self.manager.as_str())),
            (
                "kinds",
                Json::array(self.kinds.iter().map(|&k| Json::from(k))),
            ),
            (
                "kind_counts",
                Json::array(acc.kind_counts.iter().map(|&c| Json::from(c))),
            ),
            (
                "kind_mean_waste",
                Json::array(acc.kind_counts.iter().zip(&acc.kind_waste_sum).map(
                    |(&count, &sum)| Json::from(if count == 0 { 0.0 } else { sum / count as f64 }),
                )),
            ),
            (
                "size_buckets",
                Json::array(self.size_buckets.iter().map(|&m| Json::from(m))),
            ),
            ("p50_waste", Json::from(self.p50_waste)),
            ("p99_waste", Json::from(self.p99_waste)),
            ("max_waste", Json::from(self.max_waste)),
            ("max_tenant", Json::from(self.max_tenant)),
            ("mean_waste", Json::from(self.mean_waste)),
            ("objects_placed", Json::from(acc.objects_placed)),
            ("words_placed", Json::from(acc.words_placed)),
            ("words_moved", Json::from(acc.words_moved)),
            ("resident_bytes", Json::from(self.resident_bytes)),
            (
                "waste_hist",
                Json::array(acc.waste_hist.iter().map(|&c| Json::from(c))),
            ),
            ("failed_tenants", Json::from(acc.failed_tenants)),
            ("panics", Json::from(acc.panics)),
            ("engine_failures", Json::from(acc.engine_failures)),
            (
                "failures",
                Json::array(acc.failures.iter().map(ToJson::to_json)),
            ),
            ("waste_attribution", attribution),
            (
                "bucket_mean_waste",
                Json::array(self.bucket_mean_waste().into_iter().map(Json::from)),
            ),
            (
                "bucket_tenants",
                Json::array(acc.bucket_tenants.iter().map(|&t| Json::from(t))),
            ),
            (
                "bucket_thm1",
                Json::array(self.bucket_thm1.iter().map(|&f| Json::from(f))),
            ),
        ])
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} tenants x {} ({} shards)",
            self.tenants, self.manager, self.shards
        )?;
        writeln!(
            f,
            "waste HS/M: p50 {:.3}  p99 {:.3}  max {:.3} (tenant {})  mean {:.3}",
            self.p50_waste, self.p99_waste, self.max_waste, self.max_tenant, self.mean_waste
        )?;
        for (i, &kind) in self.kinds.iter().enumerate() {
            let count = self.accumulator.kind_counts[i];
            let mean = if count == 0 {
                0.0
            } else {
                self.accumulator.kind_waste_sum[i] / count as f64
            };
            writeln!(f, "  {kind:>9}: {count:>9} tenants, mean waste {mean:.3}")?;
        }
        writeln!(
            f,
            "totals: {} objects / {} words placed, {} words moved",
            self.accumulator.objects_placed,
            self.accumulator.words_placed,
            self.accumulator.words_moved
        )?;
        writeln!(
            f,
            "waste attribution: {} external / {} ghost / {} internal words",
            self.accumulator.kind_external.iter().sum::<u64>(),
            self.accumulator.kind_ghost.iter().sum::<u64>(),
            self.accumulator.kind_internal.iter().sum::<u64>()
        )?;
        writeln!(f, "measured waste vs Theorem 1 lower bound, per bucket:")?;
        let means = self.bucket_mean_waste();
        for (rank, &m) in self.size_buckets.iter().enumerate() {
            let tenants = self.accumulator.bucket_tenants[rank];
            if tenants == 0 {
                continue;
            }
            let thm1 = self.bucket_thm1.get(rank).copied().unwrap_or(0.0);
            let ratio = if thm1 > 0.0 { means[rank] / thm1 } else { 0.0 };
            writeln!(
                f,
                "  M={m:>7}: mean {:.3}  thm1 {thm1:.3}  ratio {ratio:.3}  ({tenants} tenants)",
                means[rank]
            )?;
        }
        // Fault-free fleets print exactly as they always did; the
        // quarantine section appears only when something failed.
        if self.accumulator.failed_tenants > 0 {
            writeln!(
                f,
                "failures: {} tenants quarantined ({} panic, {} engine)",
                self.accumulator.failed_tenants,
                self.accumulator.panics,
                self.accumulator.engine_failures
            )?;
            for failure in self.accumulator.failures.iter().take(5) {
                writeln!(
                    f,
                    "  tenant {:>9} [{}] {}: {}",
                    failure.tenant,
                    failure.family,
                    failure.cause.name(),
                    failure.cause.detail()
                )?;
            }
            if self.accumulator.failed_tenants > 5 {
                writeln!(
                    f,
                    "  ... ({} more; first {} retained in the report)",
                    self.accumulator.failed_tenants - 5,
                    self.accumulator.failures.len()
                )?;
            }
        }
        writeln!(
            f,
            "aggregation state: {} bytes across {} shards",
            self.resident_bytes, self.shards
        )?;
        write!(f, "{}", self.heat_map())
    }
}

/// Renders a caught panic payload, truncated to the retained-record cap.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    };
    truncate_detail(message)
}

fn truncate_detail(mut message: String) -> String {
    if message.chars().count() > MAX_FAILURE_DETAIL {
        message = message.chars().take(MAX_FAILURE_DETAIL).collect();
        message.push('…');
    }
    message
}

/// Runs one tenant end to end behind a fault-isolation barrier.
///
/// Panics and engine errors come back as a [`FailureCause`] (the caller
/// quarantines them); only configuration problems — which would affect
/// every tenant — abort the fleet. When the run's chaos plan fires the
/// `tenant-panic` site for this index, the tenant's program is wrapped
/// in a [`PanicProgram`] scheduled from the same deterministic roll, so
/// a poisoned fleet fails identically for any thread count.
fn run_tenant(
    mixer: &WorkloadMixer,
    bucket_params: &[Result<Params, String>],
    manager: ManagerKind,
    run: &RunConfig,
    index: u64,
) -> Result<(TenantSpec, Result<HeapSummary, FailureCause>), FleetError> {
    let spec = mixer.tenant(index);
    let shape = mixer.shape(&spec);
    let family = mixer.family(&spec);
    // (M, log n, c) is a pure function of the size bucket, so the params
    // were validated once per bucket in `run_with`, not once per tenant.
    let params = *bucket_params[spec.size_rank]
        .as_ref()
        .map_err(|e| FleetError::Config(format!("tenant {index}: {e}")))?;
    let built = manager
        .try_build(&params)
        .map_err(|e| FleetError::Config(format!("tenant {index}: {e}")))?;
    let heap = Heap::with_c(manager.heap_c(family.needs_budget(), shape.c));
    let program: Box<dyn Program> = if run.chaos.should_fire(FaultSite::TenantPanic, index) {
        let rounds = u64::from(mixer.config().rounds.max(1));
        let panic_round = (run.chaos.roll(FaultSite::TenantPanic, index) % rounds) as u32;
        Box::new(PanicProgram::new(family.instantiate(&shape), panic_round))
    } else {
        family.instantiate(&shape)
    };
    let tenant_plan = run.chaos.fork(index);
    let paranoia = run.paranoia;
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut exec = Execution::new(heap, program, built)
            .with_chaos(tenant_plan)
            .with_paranoia(paranoia);
        exec.run_summary()
    }));
    let outcome = match outcome {
        Ok(Ok(summary)) => Ok(summary),
        Ok(Err(error)) => Err(FailureCause::Engine(truncate_detail(error.to_string()))),
        Err(payload) => Err(FailureCause::Panic(panic_message(payload.as_ref()))),
    };
    Ok((spec, outcome))
}

/// Simulates the fleet and streams every tenant into the aggregate
/// report.
///
/// # Errors
///
/// [`FleetError::Config`] for degenerate configurations (tenant panics
/// and engine errors are quarantined into the report, not returned).
pub fn run(cfg: &FleetConfig, run: &RunConfig) -> Result<FleetReport, FleetError> {
    match run_with(cfg, run, None, None)? {
        FleetOutcome::Complete(report) => Ok(report),
        // Without checkpoint options there is no stop_after, so every
        // shard is processed.
        FleetOutcome::Paused { .. } => unreachable!("uncheckpointed runs never pause"),
    }
}

/// The first tenant index of shard `s` when `tenants` are cut into
/// `shards` contiguous, balanced ranges (the first `tenants % shards`
/// ranges hold one tenant more). `s == shards` gives `tenants`.
fn shard_start(tenants: u64, shards: usize, s: usize) -> u64 {
    let (per, extra) = (tenants / shards as u64, tenants % shards as u64);
    s as u64 * per + (s as u64).min(extra)
}

/// Like [`run`], with the two optional side channels.
///
/// With `checkpoint`, saves a resumable checkpoint every `every` shards
/// and, when `resume` is set, continues from an existing checkpoint
/// instead of starting over; a run resumed after an interruption (or
/// after `stop_after`, the one way to get [`FleetOutcome::Paused`])
/// produces a report byte-identical to an uninterrupted one.
///
/// With `progress`, keeps a live [`Heartbeat`]: a periodic stderr line
/// (tenants/sec, ETA, quarantine count, waste vs the Theorem 1
/// reference) and an optional JSONL stream. The heartbeat is a pure side
/// channel: the report is byte-identical to [`run`]'s.
///
/// # Errors
///
/// [`FleetError::Config`] as for [`run`], or when the progress stream
/// file cannot be created or written; [`FleetError::Checkpoint`] if the
/// checkpoint cannot be written, parsed, or belongs to a different fleet
/// configuration.
pub fn run_with(
    cfg: &FleetConfig,
    run: &RunConfig,
    ckpt: Option<&CheckpointOptions>,
    progress: Option<&ProgressOptions>,
) -> Result<FleetOutcome, FleetError> {
    let _span = pcb_metrics::span!("fleet.run");
    if cfg.tenants == 0 {
        return Err(FleetError::Config("tenants must be >= 1".into()));
    }
    let mixer = WorkloadMixer::new(cfg.mixer).map_err(FleetError::Config)?;
    let kinds = mixer.kinds();
    let size_buckets = mixer.size_buckets();

    // Per-bucket parameters, validated once: a tenant's (M, log n, c) is
    // the mixer's function of its size bucket, so the shards share these
    // instead of re-validating them for every tenant. An invalid bucket
    // stays lazy — it fails the fleet only when a tenant actually lands
    // in it.
    let bucket_params: Vec<Result<Params, String>> = (0..size_buckets)
        .map(|rank| {
            let (m, log_n, c) = mixer.bucket_shape(rank);
            Params::new(m, log_n, c).map_err(|e| e.to_string())
        })
        .collect();

    // The Theorem 1 curve at each bucket's (M, log n, c) — the reference
    // the measured per-bucket means are attributed against.
    let bucket_thm1: Vec<f64> = bucket_params
        .iter()
        .map(|p| p.as_ref().map(|&p| bounds::thm1::factor(p)).unwrap_or(0.0))
        .collect();
    // Heartbeat reference: the bound at the largest bucket.
    let thm1_ref = bucket_thm1.last().copied().unwrap_or(0.0);

    let mut heartbeat = match progress {
        Some(opts) => Heartbeat::new("fleet", opts)
            .map_err(|e| FleetError::Config(format!("progress stream: {e}")))?,
        None => Heartbeat::disabled("fleet"),
    };

    // Contiguous, balanced shard ranges — a pure function of the config.
    let shards = cfg
        .shards
        .clamp(1, cfg.tenants.min(usize::MAX as u64) as usize);
    let ranges: Vec<(u64, u64)> = (0..shards)
        .map(|s| {
            (
                shard_start(cfg.tenants, shards, s),
                shard_start(cfg.tenants, shards, s + 1),
            )
        })
        .collect();

    let mut merged = FleetAccumulator::new(kinds.len(), size_buckets);
    // Every accumulator has the same fixed size: the merged one plus one
    // per shard make up the aggregation state.
    let per_accumulator = merged.resident_bytes() as u64;
    let resident = |shards: usize| (shards as u64 + 1) * per_accumulator;
    let mut done = 0usize;

    if let Some(opts) = ckpt {
        if opts.resume {
            let state = checkpoint::load(cfg, run, opts, shards, kinds.len(), size_buckets)?;
            merged = state.accumulator;
            done = state.shards_done;
        }
    }

    // Without checkpointing there is one chunk: all shards at once —
    // unless a live heartbeat wants intermediate boundaries to tick at,
    // in which case the shards are processed in ~64 chunks. Chunking
    // never changes the result: shards still merge in shard order.
    let (target, every) = match ckpt {
        Some(opts) => (
            opts.stop_after.map_or(shards, |s| s.min(shards)),
            opts.every.max(1),
        ),
        None if heartbeat.active() => (shards, (shards / 64).max(1)),
        None => (shards, shards),
    };

    while done < target {
        let end = (done + every).min(target);
        let shard_results: Vec<Result<FleetAccumulator, FleetError>> =
            parallel::par_map_threads(run.threads, &ranges[done..end], |&(lo, hi)| {
                let _span = pcb_metrics::span!("fleet.shard");
                let mut acc = FleetAccumulator::new(kinds.len(), size_buckets);
                for index in lo..hi {
                    let (spec, outcome) =
                        run_tenant(&mixer, &bucket_params, cfg.manager, run, index)?;
                    match outcome {
                        Ok(summary) => acc.record(&spec, &summary),
                        Err(cause) => acc.record_failure(spec.index, kinds[spec.kind], cause),
                    }
                }
                Ok(acc)
            });

        // Merge in shard (= tenant-range) order: par_map returns input
        // order, so this fold is independent of scheduling.
        for result in shard_results {
            merged
                .merge(&result?)
                .map_err(|key| FleetError::Checkpoint(format!("restored `{key}` overflows u64")))?;
        }
        done = end;
        if let Some(opts) = ckpt {
            checkpoint::save(cfg, run, opts, shards, done, &merged)?;
        }
        let attempted = merged.tenants + merged.failed_tenants;
        let mean = if merged.tenants == 0 {
            0.0
        } else {
            merged.waste_sum / merged.tenants as f64
        };
        heartbeat.tick(
            attempted,
            cfg.tenants,
            &[
                ("shards_done", Json::from(done as u64)),
                ("quarantined", Json::from(merged.failed_tenants)),
                ("resident_bytes", Json::from(resident(done))),
                ("mean_waste", Json::from(mean)),
                (
                    "waste_vs_thm1",
                    Json::from(if thm1_ref > 0.0 { mean / thm1_ref } else { 0.0 }),
                ),
            ],
        );
    }
    heartbeat
        .finish()
        .map_err(|e| FleetError::Config(format!("progress stream: {e}")))?;

    if done < shards {
        return Ok(FleetOutcome::Paused {
            shards_done: done,
            shards_total: shards,
        });
    }

    let mean_waste = if merged.tenants == 0 {
        0.0
    } else {
        merged.waste_sum / merged.tenants as f64
    };
    Ok(FleetOutcome::Complete(FleetReport {
        // `accumulator.tenants` counts successes; the headline figure is
        // every tenant attempted, quarantined failures included.
        tenants: merged.tenants + merged.failed_tenants,
        shards,
        manager: cfg.manager.to_string(),
        kinds,
        size_buckets: (0..size_buckets).map(|r| mixer.bucket_shape(r).0).collect(),
        p50_waste: merged.quantile(0.5),
        p99_waste: merged.quantile(0.99),
        max_waste: merged.max_waste.max(0.0),
        max_tenant: merged.max_tenant,
        mean_waste,
        bucket_thm1,
        resident_bytes: resident(shards),
        accumulator: merged,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            tenants: 64,
            shards: 8,
            mixer: MixerConfig {
                m_min: 128,
                m_max: 1024,
                ..MixerConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_runs_and_reports() {
        let report = run(&tiny(), &RunConfig::default()).expect("fleet runs");
        assert_eq!(report.tenants, 64);
        assert_eq!(report.shards, 8);
        assert_eq!(report.accumulator.kind_counts.iter().sum::<u64>(), 64);
        assert!(report.max_waste >= report.p99_waste);
        assert!(report.p99_waste >= report.p50_waste);
        // HS/M can dip below 1 for tenants that never fill up to their
        // bound M; it is always positive once anything was placed.
        assert!(report.mean_waste > 0.0);
        assert!(report.accumulator.objects_placed > 0);
        let text = report.to_string();
        assert!(text.contains("p50"));
        assert!(text.contains("waste factor"));
    }

    #[test]
    fn thread_count_does_not_change_the_report_bytes() {
        let cfg = tiny();
        let baseline =
            pcb_json::ToJson::to_json(&run(&cfg, &RunConfig::default()).unwrap()).to_string();
        for threads in [2, 4] {
            let report = run(&cfg, &RunConfig::default().with_threads(threads)).unwrap();
            assert_eq!(
                pcb_json::ToJson::to_json(&report).to_string(),
                baseline,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn shard_count_is_part_of_the_result_not_the_machine() {
        // Different shard counts may legitimately differ in resident
        // bytes, but the tenant-derived aggregates must match: shard
        // boundaries only partition a fixed per-tenant computation.
        let a = run(&tiny(), &RunConfig::default()).unwrap();
        let b = run(
            &FleetConfig {
                shards: 3,
                ..tiny()
            },
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(a.accumulator.waste_hist, b.accumulator.waste_hist);
        assert_eq!(a.max_waste, b.max_waste);
        assert_eq!(a.max_tenant, b.max_tenant);
        assert_eq!(a.accumulator.words_placed, b.accumulator.words_placed);
    }

    #[test]
    fn aggregation_state_is_o_shards() {
        let small = run(&tiny(), &RunConfig::default()).unwrap();
        let more_tenants = run(
            &FleetConfig {
                tenants: 256,
                ..tiny()
            },
            &RunConfig::default(),
        )
        .unwrap();
        // 4x the tenants, same shards: the aggregation footprint must not
        // grow with the tenant count.
        assert_eq!(small.resident_bytes, more_tenants.resident_bytes);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let err = run(
            &FleetConfig {
                tenants: 0,
                ..FleetConfig::default()
            },
            &RunConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::Config(_)));
    }

    #[test]
    fn injected_panics_are_quarantined_deterministically() {
        use pcb_chaos::FaultPlan;
        // 20% of tenants panic mid-run; the fleet must survive and the
        // quarantine section must be byte-identical for every thread
        // count.
        let cfg = tiny();
        let chaos = FaultPlan::new(7).with_rate(FaultSite::TenantPanic, 200_000);
        let run_cfg = RunConfig::default().with_chaos(chaos);
        let baseline = run(&cfg, &run_cfg).expect("poisoned fleet still completes");
        assert!(baseline.accumulator.failed_tenants > 0, "panics fired");
        assert!(baseline.accumulator.panics == baseline.accumulator.failed_tenants);
        assert_eq!(
            baseline.accumulator.tenants + baseline.accumulator.failed_tenants,
            64,
            "every tenant is either recorded or quarantined"
        );
        assert_eq!(baseline.tenants, 64, "headline count is tenants attempted");
        for failure in &baseline.accumulator.failures {
            assert!(matches!(failure.cause, FailureCause::Panic(_)));
            assert!(
                failure.cause.detail().contains("injected tenant panic"),
                "panic message survives: {:?}",
                failure.cause
            );
        }
        let text = baseline.to_string();
        assert!(text.contains("quarantined"), "{text}");
        let expect = pcb_json::ToJson::to_json(&baseline).to_string();
        for threads in [2, 4] {
            let report = run(&cfg, &run_cfg.with_threads(threads)).unwrap();
            assert_eq!(
                pcb_json::ToJson::to_json(&report).to_string(),
                expect,
                "threads={threads}"
            );
        }
    }

    fn temp_checkpoint(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pcb-fleet-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn kill_and_resume_reproduces_the_report_byte_for_byte() {
        use pcb_chaos::FaultPlan;
        let cfg = tiny();
        // Fault injection on, so the failure section crosses the
        // checkpoint boundary too.
        let chaos = FaultPlan::new(11).with_rate(FaultSite::TenantPanic, 100_000);
        let run_cfg = RunConfig::default().with_chaos(chaos);
        let full = pcb_json::ToJson::to_json(&run(&cfg, &run_cfg).unwrap()).to_string();

        let path = temp_checkpoint("kill-resume");
        // "Kill" the run after 3 of 8 shards...
        let opts = CheckpointOptions::new(&path).every(2).stop_after(3);
        match run_with(&cfg, &run_cfg, Some(&opts), None).unwrap() {
            FleetOutcome::Paused {
                shards_done,
                shards_total,
            } => {
                assert_eq!(shards_done, 3);
                assert_eq!(shards_total, 8);
            }
            FleetOutcome::Complete(_) => panic!("stop_after must pause"),
        }
        // ...and resume under a different thread count.
        let resumed = match run_with(
            &cfg,
            &run_cfg.with_threads(4),
            Some(&CheckpointOptions::new(&path).every(2).resume(true)),
            None,
        )
        .unwrap()
        {
            FleetOutcome::Complete(report) => report,
            FleetOutcome::Paused { .. } => panic!("resume must complete"),
        };
        assert_eq!(
            pcb_json::ToJson::to_json(&resumed).to_string(),
            full,
            "resumed report is byte-identical to the uninterrupted run"
        );
        // Resuming a finished run re-emits the identical report without
        // re-running any shard.
        let again = match run_with(
            &cfg,
            &run_cfg,
            Some(&CheckpointOptions::new(&path).resume(true)),
            None,
        )
        .unwrap()
        {
            FleetOutcome::Complete(report) => report,
            FleetOutcome::Paused { .. } => panic!("finished run must complete"),
        };
        assert_eq!(pcb_json::ToJson::to_json(&again).to_string(), full);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoints_from_a_different_configuration_are_rejected() {
        let cfg = tiny();
        let run_cfg = RunConfig::default();
        let path = temp_checkpoint("fingerprint");
        let opts = CheckpointOptions::new(&path).every(4).stop_after(4);
        assert!(matches!(
            run_with(&cfg, &run_cfg, Some(&opts), None).unwrap(),
            FleetOutcome::Paused { .. }
        ));
        let other = FleetConfig { tenants: 65, ..cfg };
        let err = run_with(
            &other,
            &run_cfg,
            Some(&CheckpointOptions::new(&path).resume(true)),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        // A resume pointed at a missing checkpoint is a clean error too.
        std::fs::remove_file(&path).ok();
        let err = run_with(
            &cfg,
            &run_cfg,
            Some(&CheckpointOptions::new(&path).resume(true)),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn checkpoints_stamped_with_the_retired_knobs_are_rejected() {
        // Checkpoints written while the occupancy substrate and the
        // manager mirror were run settings hashed both into the
        // fingerprint; such a file must fail to resume cleanly. So must
        // one in the v2 layout, which carried the metrics knob's
        // snapshot and a resident-bytes figure.
        let cfg = tiny();
        let run_cfg = RunConfig::default();
        let path = temp_checkpoint("retired-knobs");
        let opts = CheckpointOptions::new(&path).every(4).stop_after(4);
        assert!(matches!(
            run_with(&cfg, &run_cfg, Some(&opts), None).unwrap(),
            FleetOutcome::Paused { .. }
        ));
        let old = checkpoint::hash_desc(&format!(
            "{}|{}|{}|{:?}|bitmap|indexed|{}|{}|false",
            cfg.tenants, cfg.shards, cfg.manager, cfg.mixer, run_cfg.chaos, run_cfg.paranoia,
        ));
        let current = checkpoint::fingerprint(&cfg, &run_cfg).to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&current));
        let resume = || {
            run_with(
                &cfg,
                &run_cfg,
                Some(&CheckpointOptions::new(&path).resume(true)),
                None,
            )
            .unwrap_err()
        };
        std::fs::write(&path, text.replace(&current, &old.to_string())).unwrap();
        let err = resume();
        assert!(matches!(err, FleetError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");

        let mut v2 = Json::parse(&text).unwrap();
        let Json::Object(top) = &mut v2 else {
            panic!("checkpoint is an object")
        };
        top.insert("format_version".into(), Json::from(2u64));
        top.insert("resident".into(), Json::from(4096u64));
        let Some(Json::Object(acc)) = top.get_mut("accumulator") else {
            panic!("checkpoint has an accumulator")
        };
        acc.remove("waste_milli");
        acc.remove("heap_size");
        acc.insert("metrics".into(), MetricsSnapshot::new().to_json());
        std::fs::write(&path, format!("{v2}\n")).unwrap();
        let err = resume();
        assert!(matches!(err, FleetError::Checkpoint(_)), "{err}");
        assert!(
            err.to_string()
                .contains("format version Some(2) (this build reads 3)"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoints_with_impossible_counts_are_rejected() {
        // 64 tenants in 8 shards: the 4 folded shards hold tenants 0..32,
        // so each edit below leaves counts no real run can produce.
        let cfg = tiny();
        let run_cfg = RunConfig::default();
        let path = temp_checkpoint("impossible-counts");
        let opts = CheckpointOptions::new(&path).every(4).stop_after(4);
        assert!(matches!(
            run_with(&cfg, &run_cfg, Some(&opts), None).unwrap(),
            FleetOutcome::Paused { .. }
        ));
        let saved = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let resume = || {
            run_with(
                &cfg,
                &run_cfg,
                Some(&CheckpointOptions::new(&path).resume(true)),
                None,
            )
        };
        for (key, index, value) in [
            ("tenants", None, u64::MAX),
            ("failed_tenants", None, 1),
            ("kind_counts", Some(0), u64::MAX),
            ("bucket_tenants", Some(0), 33),
            ("max_tenant", None, 64),
            ("objects_placed", None, u64::MAX),
            ("words_placed", None, u64::MAX),
            ("panics", None, u64::MAX),
        ] {
            let mut doc = saved.clone();
            let Json::Object(top) = &mut doc else {
                panic!("checkpoint is an object")
            };
            let Some(Json::Object(acc)) = top.get_mut("accumulator") else {
                panic!("checkpoint has an accumulator")
            };
            let field = acc.get_mut(key).expect("field present");
            match (index, field) {
                (Some(i), Json::Array(items)) => items[i] = Json::from(value),
                (None, field) => *field = Json::from(value),
                (Some(_), other) => panic!("`{key}` is not an array: {other}"),
            }
            std::fs::write(&path, format!("{doc}\n")).unwrap();
            let err = resume().unwrap_err();
            assert!(matches!(err, FleetError::Checkpoint(_)), "{key}: {err}");
        }
        std::fs::write(&path, format!("{saved}\n")).unwrap();
        assert!(matches!(resume().unwrap(), FleetOutcome::Complete(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantile_edges_behave() {
        let mut acc = FleetAccumulator::new(1, 1);
        assert_eq!(acc.quantile(0.5), 0.0, "empty accumulator");
        // 3 tenants at waste 1.0 (bucket 32), 1 at waste 2.0 (bucket 64).
        acc.tenants = 4;
        acc.waste_hist[32] = 3;
        acc.waste_hist[64] = 1;
        assert_eq!(acc.quantile(0.5), 1.0);
        assert_eq!(acc.quantile(1.0), 2.0);
    }
}
