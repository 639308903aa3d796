//! The wall-clock budgets the design commits to, one case each:
//!
//! * a **disabled** metric plane costs at most 1 % of a fleet run;
//! * an **attached** metric plane costs at most 5 %;
//! * **attached observers** (a streamed JSONL trace, a per-round series
//!   and manager stats) cost at most 25 % over the detached run;
//! * an **armed chaos plan** that never fires stays within ±25 %.
//!
//! Timing in a debug build means nothing, so every case is ignored by
//! default. Run them in release, one at a time so they do not compete
//! for cores:
//!
//! ```text
//! cargo test --release -p partial-compaction --test overhead_budgets -- \
//!     --ignored --test-threads=1 --nocapture
//! ```
//!
//! Modes are interleaved round-robin within each iteration, so slow
//! machine drift lands on all of them alike. That observers, metrics
//! and chaos leave the results unchanged is tested in the tier-1 suite
//! (`observability.rs`, `fleet_determinism.rs`, `chaos_detection.rs`);
//! these cases only time.

use std::time::Instant;

use partial_compaction::fleet::{self, FleetConfig};
use partial_compaction::metrics;
use partial_compaction::workload::MixerConfig;
use partial_compaction::{sim, FaultPlan, FaultSite, ManagerKind, Params, RunConfig, TraceWriter};

/// Iterations per mode.
const ITERS: usize = 5;

/// Wall seconds of one call; its result is dropped untimed.
fn timed<T>(run: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    let _result = run();
    start.elapsed().as_secs_f64()
}

/// Median of an odd number of samples.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}

/// The fleet both metric-plane cases time: 2 000 small first-fit tenants.
fn metrics_fleet() -> FleetConfig {
    FleetConfig {
        tenants: 2000,
        shards: 16,
        manager: ManagerKind::FirstFit,
        mixer: MixerConfig {
            m_min: 128,
            m_max: 1024,
            ..MixerConfig::default()
        },
    }
}

/// Wall seconds of one [`metrics_fleet`] run with the metric plane on
/// or off.
fn fleet_seconds(metrics: bool) -> f64 {
    let cfg = metrics_fleet();
    let run = RunConfig::default().with_metrics(metrics);
    timed(|| fleet::run(&cfg, &run).expect("fleet runs"))
}

/// The disabled plane cannot be timed as a run-vs-run delta (the gates
/// stay compiled in), so it is bounded from above: the cost of one
/// disabled instrument site, loop overhead included, times a generous
/// 64 sites per tenant, as a share of the metrics-off time per tenant.
#[test]
#[ignore = "wall-clock budget; run in release"]
fn disabled_metric_plane_costs_at_most_1_pct() {
    const SITES_PER_TENANT: f64 = 64.0;
    const GATE_ITERS: u64 = 20_000_000;
    assert!(!metrics::enabled(), "the probe times the disabled path");
    let off = median((0..ITERS).map(|_| fleet_seconds(false)).collect());
    let start = Instant::now();
    for i in 0..GATE_ITERS {
        metrics::add_counter("bench.gate_probe", std::hint::black_box(i) & 1);
    }
    let gate = start.elapsed().as_secs_f64() / GATE_ITERS as f64;
    let per_tenant = off / metrics_fleet().tenants as f64;
    let pct = 100.0 * SITES_PER_TENANT * gate / per_tenant;
    println!(
        "disabled metric plane: {:.2} ns/site, {:.1} us/tenant -> {pct:.5} % (budget 1 %)",
        gate * 1e9,
        per_tenant * 1e6
    );
    assert!(pct <= 1.0, "disabled metric plane at {pct:.5} %, over 1 %");
}

/// The plane costs a few percent of a fleet run of about 0.1 s, less
/// than one run's wall-clock noise on a shared host. So the case times
/// many interleaved pairs and takes the median of the per-pair ratios:
/// ten runs on a 2-vCPU host spread over 1.7 points (+2.2 % to +3.9 %),
/// where the median of five runs per mode spread over 20.
#[test]
#[ignore = "wall-clock budget; run in release"]
fn attached_metric_plane_costs_at_most_5_pct() {
    const PAIRS: usize = 151;
    let (mut off, mut on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        // Alternate which mode goes first, so neither always runs warm.
        let (plain, metered) = if pair % 2 == 0 {
            (fleet_seconds(false), fleet_seconds(true))
        } else {
            let metered = fleet_seconds(true);
            (fleet_seconds(false), metered)
        };
        off.push(plain);
        on.push(metered);
        ratios.push(metered / plain);
    }
    let (off, on) = (median(off), median(on));
    let pct = (median(ratios) - 1.0) * 100.0;
    println!("attached metric plane: off {off:.3} s, on {on:.3} s -> {pct:+.2} % (budget 5 %)");
    assert!(pct <= 5.0, "attached metric plane at {pct:+.2} %, over 5 %");
}

/// `P_F` against every manager at M = 2^14 and 2^16 words, log n = 10,
/// c in {10, 20, 50, 100}.
fn observer_grid() -> Vec<(Params, ManagerKind)> {
    let mut cells = Vec::new();
    for m_shift in [14, 16] {
        for c in [10, 20, 50, 100] {
            let params = Params::new(1 << m_shift, 10, c).expect("valid grid point");
            cells.extend(ManagerKind::ALL.map(|kind| (params, kind)));
        }
    }
    cells
}

#[test]
#[ignore = "wall-clock budget; run in release"]
fn attached_observers_cost_at_most_25_pct() {
    let cells = observer_grid();
    let detached = || {
        for &(params, kind) in &cells {
            sim::Sim::new(params)
                .manager(kind)
                .run()
                .expect("cell runs");
        }
    };
    let attached = || {
        for &(params, kind) in &cells {
            let mut writer = TraceWriter::new(std::io::sink(), params.c(), FaultPlan::empty());
            sim::Sim::new(params)
                .manager(kind)
                .observe(&mut writer)
                .series(1)
                .stats(true)
                .run()
                .expect("cell runs");
            writer.finish().expect("a sink never fails");
        }
    };
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    for _ in 0..ITERS {
        plain.push(timed(detached));
        observed.push(timed(attached));
    }
    let (plain, observed) = (median(plain), median(observed));
    let pct = (observed / plain - 1.0) * 100.0;
    println!(
        "attached observers ({} cells): detached {plain:.3} s, attached {observed:.3} s \
         -> {pct:+.1} % (budget 25 %)",
        cells.len()
    );
    assert!(pct <= 25.0, "attached observers at {pct:+.1} %, over 25 %");
}

/// A plan armed at one part per million on the tenant-panic stream pays
/// the roll at every decision point but almost surely never fires; if
/// it does, the panic is quarantined, not timed differently.
#[test]
#[ignore = "wall-clock budget; run in release"]
fn armed_chaos_plan_stays_within_25_pct() {
    let cfg = FleetConfig {
        tenants: 10_000,
        shards: 64,
        manager: ManagerKind::FirstFit,
        mixer: MixerConfig::default(),
    };
    let unarmed = RunConfig::default();
    let armed =
        RunConfig::default().with_chaos(FaultPlan::new(1).with_rate(FaultSite::TenantPanic, 1));
    let (mut unarmed_s, mut armed_s) = (0.0, 0.0);
    for _ in 0..ITERS {
        unarmed_s += timed(|| fleet::run(&cfg, &unarmed).expect("fleet runs"));
        armed_s += timed(|| fleet::run(&cfg, &armed).expect("fleet runs"));
    }
    let pct = (armed_s / unarmed_s - 1.0) * 100.0;
    println!(
        "armed chaos plan: unarmed {unarmed_s:.2} s, armed {armed_s:.2} s over {ITERS} runs \
         -> {pct:+.1} % (budget ±25 %)"
    );
    assert!(
        pct.abs() <= 25.0,
        "armed chaos plan at {pct:+.1} %, outside ±25 %"
    );
}
