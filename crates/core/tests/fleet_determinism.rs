//! Fleet invariants that must hold across machines: the aggregate
//! report is byte-identical for every thread count, and the streamed
//! aggregation matches an oracle that
//! runs each tenant independently and folds the summaries by hand.

use partial_compaction::fleet::{self, FleetConfig};
use partial_compaction::heap::HeapSummary;
use partial_compaction::workload::MixerConfig;
use partial_compaction::{Execution, Heap, ManagerKind, Params, RunConfig};
use pcb_json::ToJson;

fn small_fleet() -> FleetConfig {
    FleetConfig {
        tenants: 48,
        shards: 6,
        manager: ManagerKind::FirstFit,
        mixer: MixerConfig {
            m_min: 128,
            m_max: 1024,
            ..MixerConfig::default()
        },
    }
}

/// The tentpole guarantee: `PCB_THREADS` (resolved into
/// [`RunConfig::threads`]) never changes a byte of the aggregate report.
#[test]
fn report_bytes_identical_across_threads() {
    let cfg = small_fleet();
    let baseline = fleet::run(&cfg, &RunConfig::default())
        .expect("fleet runs")
        .to_json()
        .to_string();
    for threads in [1usize, 2, 4] {
        let run = RunConfig::default().with_threads(threads);
        let report = fleet::run(&cfg, &run).expect("fleet runs");
        assert_eq!(report.to_json().to_string(), baseline, "threads={threads}");
    }
}

/// The metric plane obeys the same contract: the `--metrics-out`
/// snapshot is derived from the report (counter sums, a gauge max,
/// histogram buckets — integers only), so it is identical across thread
/// counts.
#[test]
fn metrics_plane_identical_across_threads() {
    let cfg = small_fleet();
    let baseline = fleet::run(&cfg, &RunConfig::default())
        .expect("fleet runs")
        .metrics();
    assert!(!baseline.is_empty(), "a fleet with successes has metrics");
    for threads in [1usize, 2, 4] {
        let run = RunConfig::default().with_threads(threads);
        let report = fleet::run(&cfg, &run).expect("fleet runs");
        assert_eq!(report.metrics(), baseline, "threads={threads}");
    }
}

/// The metric plane agrees with the accumulator it is derived from, and
/// the attribution arrays line up with the Theorem 1 reference curve.
#[test]
fn attribution_counters_match_the_accumulator() {
    let report = fleet::run(&small_fleet(), &RunConfig::default()).expect("fleet runs");
    let acc = &report.accumulator;
    let metrics = &report.metrics();
    assert_eq!(
        metrics.counter("waste.external_words"),
        acc.kind_external.iter().sum::<u64>()
    );
    assert_eq!(
        metrics.counter("waste.ghost_words"),
        acc.kind_ghost.iter().sum::<u64>()
    );
    assert_eq!(
        metrics.counter("waste.internal_words"),
        acc.kind_internal.iter().sum::<u64>()
    );
    assert_eq!(metrics.counter("fleet.words_placed"), acc.words_placed);
    assert_eq!(metrics.counter("fleet.objects_placed"), acc.objects_placed);
    let per_family: u64 = report
        .kinds
        .iter()
        .map(|kind| metrics.counter(&format!("fleet.tenants.{kind}")))
        .sum();
    assert_eq!(per_family, acc.tenants, "every tenant counted once");
    let waste_hist = metrics
        .histogram("fleet.waste_milli")
        .expect("waste histogram present");
    assert_eq!(waste_hist.count(), acc.tenants);
    // Attribution rows align with the bound curve: one Theorem 1 factor
    // per size bucket (>= 1x M; exactly 1.0 only where the bound
    // degenerates at minimal parameters), tenants fully partitioned.
    assert_eq!(report.bucket_thm1.len(), report.size_buckets.len());
    assert!(report.bucket_thm1.iter().all(|&f| f >= 1.0), "thm1 >= 1x M");
    assert!(
        report.bucket_thm1.last().is_some_and(|&f| f > 1.0),
        "largest bucket has a non-trivial bound"
    );
    assert_eq!(acc.bucket_tenants.iter().sum::<u64>(), acc.tenants);
    assert_eq!(report.bucket_mean_waste().len(), report.size_buckets.len());
}

/// Runs one tenant exactly the way `fleet::run` does, but standalone —
/// the oracle side of the aggregation test.
fn run_tenant_independently(cfg: &FleetConfig, index: u64) -> (usize, HeapSummary) {
    let mixer = partial_compaction::workload::WorkloadMixer::new(cfg.mixer).expect("valid mixer");
    let spec = mixer.tenant(index);
    let shape = mixer.shape(&spec);
    let family = mixer.family(&spec);
    let params = Params::new(shape.m, shape.log_n, shape.c).expect("valid tenant params");
    let heap = Heap::with_c(cfg.manager.heap_c(family.needs_budget(), shape.c));
    let mut exec = Execution::new(heap, family.instantiate(&shape), cfg.manager.build(&params));
    (spec.kind, exec.run_summary().expect("tenant runs"))
}

/// Oracle: an N=8 fleet's streamed aggregates equal the fold of eight
/// independently-run tenant reports.
#[test]
fn streamed_aggregates_match_independent_runs() {
    let cfg = FleetConfig {
        tenants: 8,
        shards: 3, // uneven split: ranges 3/3/2
        ..small_fleet()
    };
    let report = fleet::run(&cfg, &RunConfig::default()).expect("fleet runs");

    let oracle: Vec<(usize, HeapSummary)> = (0..cfg.tenants)
        .map(|index| run_tenant_independently(&cfg, index))
        .collect();

    // Totals are plain sums over the independent runs.
    let objects: u64 = oracle.iter().map(|(_, s)| s.objects_placed).sum();
    let placed: u64 = oracle.iter().map(|(_, s)| s.words_placed).sum();
    let moved: u64 = oracle.iter().map(|(_, s)| s.words_moved).sum();
    assert_eq!(report.accumulator.objects_placed, objects);
    assert_eq!(report.accumulator.words_placed, placed);
    assert_eq!(report.accumulator.words_moved, moved);
    assert_eq!(report.tenants, cfg.tenants);

    // Kind counts fold per family.
    let mut kind_counts = vec![0u64; report.kinds.len()];
    for (kind, _) in &oracle {
        kind_counts[*kind] += 1;
    }
    assert_eq!(report.accumulator.kind_counts, kind_counts);

    // Mean and max (first tenant wins ties, strict `>` while scanning in
    // index order).
    let sum: f64 = oracle.iter().map(|(_, s)| s.waste_factor).sum();
    assert!((report.mean_waste - sum / cfg.tenants as f64).abs() < 1e-12);
    let (mut max, mut max_tenant) = (f64::NEG_INFINITY, 0u64);
    for (index, (_, summary)) in oracle.iter().enumerate() {
        if summary.waste_factor > max {
            max = summary.waste_factor;
            max_tenant = index as u64;
        }
    }
    assert_eq!(report.max_waste, max);
    assert_eq!(report.max_tenant, max_tenant);

    // Quantiles are nearest-rank at 1/32 bucket resolution: the reported
    // value is the lower bucket edge of the rank-th smallest waste.
    let mut wastes: Vec<f64> = oracle.iter().map(|(_, s)| s.waste_factor).collect();
    wastes.sort_by(|a, b| a.partial_cmp(b).expect("finite waste"));
    let edge = |p: f64| {
        let rank = ((p * wastes.len() as f64).ceil() as usize).clamp(1, wastes.len());
        let bucket = ((wastes[rank - 1] * 32.0) as usize).min(255);
        bucket as f64 / 32.0
    };
    assert_eq!(report.p50_waste, edge(0.5));
    assert_eq!(report.p99_waste, edge(0.99));

    // And the histogram holds exactly one entry per tenant.
    assert_eq!(
        report.accumulator.waste_hist.iter().sum::<u64>(),
        cfg.tenants
    );
}
