//! Wall-clock cost of the observability layer.
//!
//! Runs the empirical adversary grid three ways and times each:
//!
//! 1. `raw` — the engine driven directly (`Execution::run`), the code
//!    path every release before the observability layer used;
//! 2. `detached` — the `sim::Sim` builder with nothing attached, which
//!    must produce byte-identical reports to `raw` (asserted) at the same
//!    speed, since the engine still takes its unobserved path;
//! 3. `attached` — the full pipeline: an event stream to a JSONL trace
//!    writer, a per-round time series, and manager placement stats, all
//!    at once.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin obs_bench [-- --smoke] [-- --out <path>]
//! ```
//!
//! `--smoke` shrinks the grid and runs one iteration (CI); the default
//! *interleaves* the three modes round-robin for five iterations and
//! reports the **median** per mode. Interleaving spreads slow drift
//! (thermal, cache, scheduler) evenly across modes and the median rejects
//! one-off outliers — a single-shot comparison of back-to-back phases can
//! easily report a "negative overhead" that is pure noise. The artifact
//! lands at `BENCH_obs.json` unless `--out` overrides it.

use std::time::Instant;

use partial_compaction::metrics;

use partial_compaction::{
    sim, Execution, Heap, ManagerKind, Params, PfConfig, PfProgram, TraceWriter,
};
use pcb_json::Json;

fn grid(smoke: bool) -> Vec<(Params, ManagerKind)> {
    let shifts: &[(u32, u32)] = if smoke {
        &[(14, 10)]
    } else {
        &[(14, 10), (16, 10)]
    };
    let cs: &[u64] = if smoke { &[20] } else { &[10, 20, 50, 100] };
    let mut cells = Vec::new();
    for &(m_shift, log_n) in shifts {
        for &c in cs {
            let params = Params::new(1 << m_shift, log_n, c).expect("valid grid point");
            for kind in ManagerKind::ALL {
                cells.push((params, kind));
            }
        }
    }
    cells
}

/// The pre-observability code path: drive the engine directly.
fn run_raw(cells: &[(Params, ManagerKind)]) -> String {
    let mut out = Vec::new();
    for &(params, kind) in cells {
        let cfg = PfConfig::new(params.m(), params.log_n(), params.c()).expect("feasible");
        let heap = Heap::with_c(kind.heap_c(true, params.c()));
        let mut exec = Execution::new(heap, PfProgram::new(cfg), kind.build(&params));
        let report = exec.run().expect("cell runs");
        out.push(format!("{report:?}"));
    }
    out.join("\n")
}

fn run_detached(cells: &[(Params, ManagerKind)]) -> String {
    let mut out = Vec::new();
    for &(params, kind) in cells {
        let report = sim::Sim::new(params)
            .manager(kind)
            .run()
            .expect("cell runs");
        out.push(format!("{:?}", report.execution));
    }
    out.join("\n")
}

/// Everything on at once: streamed trace + per-round series + stats.
fn run_attached(cells: &[(Params, ManagerKind)]) -> (String, u64) {
    let mut out = Vec::new();
    let mut events = 0u64;
    for &(params, kind) in cells {
        let mut writer = TraceWriter::new(std::io::sink()).begin(params.c());
        let report = sim::Sim::new(params)
            .manager(kind)
            .observe(&mut writer)
            .series(1)
            .stats(true)
            .run()
            .expect("cell runs");
        events += writer.events_seen();
        writer.finish().expect("sink never fails");
        assert!(report.series.is_some() && report.stats.is_some());
        out.push(format!("{:?}", report.execution));
    }
    (out.join("\n"), events)
}

/// One timed call.
fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = run();
    (start.elapsed().as_secs_f64(), value)
}

/// Median of the collected samples (mean of the middle two when even).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(i) => match args.get(i + 1) {
            Some(path) => path.clone(),
            None => {
                eprintln!("error: --out requires a path");
                std::process::exit(2);
            }
        },
        None => "BENCH_obs.json".into(),
    };
    let iters: u32 = if smoke { 1 } else { 5 };
    let cells = grid(smoke);

    // Round-robin the three modes within each iteration so slow machine
    // drift lands on all of them equally, then take per-mode medians.
    let mut raw_samples = Vec::new();
    let mut detached_samples = Vec::new();
    let mut attached_samples = Vec::new();
    let mut events = 0u64;
    for _ in 0..iters {
        let (raw_s, raw_fp) = {
            let _span = metrics::span!("bench.raw");
            timed(|| run_raw(&cells))
        };
        let (detached_s, detached_fp) = {
            let _span = metrics::span!("bench.detached");
            timed(|| run_detached(&cells))
        };
        assert_eq!(
            raw_fp, detached_fp,
            "the detached builder must reproduce the raw engine exactly"
        );
        let (attached_s, (attached_fp, iter_events)) = {
            let _span = metrics::span!("bench.attached");
            timed(|| run_attached(&cells))
        };
        assert_eq!(
            raw_fp, attached_fp,
            "observation must not change any report field"
        );
        raw_samples.push(raw_s);
        detached_samples.push(detached_s);
        attached_samples.push(attached_s);
        events = iter_events;
    }
    let raw_seconds = median(&raw_samples);
    let detached_seconds = median(&detached_samples);
    let attached_seconds = median(&attached_samples);

    let detached_pct = (detached_seconds / raw_seconds - 1.0) * 100.0;
    let attached_pct = (attached_seconds / detached_seconds - 1.0) * 100.0;
    eprintln!(
        "{} cells, median of {iters}: raw {raw_seconds:.3}s, detached \
         {detached_seconds:.3}s ({detached_pct:+.1}%), attached \
         {attached_seconds:.3}s ({attached_pct:+.1}% over detached, \
         {events} events streamed)",
        cells.len()
    );

    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let report = Json::object([
        ("smoke", Json::from(smoke)),
        ("host_cores", Json::from(host_cores)),
        ("iters_per_config", Json::from(iters)),
        ("cells", Json::from(cells.len())),
        ("raw_seconds", Json::from(raw_seconds)),
        ("detached_seconds", Json::from(detached_seconds)),
        ("attached_seconds", Json::from(attached_seconds)),
        ("detached_overhead_pct", Json::from(detached_pct)),
        ("attached_overhead_pct", Json::from(attached_pct)),
        ("events_streamed", Json::from(events)),
        ("reports_identical", Json::from(true)),
        ("attached_within_budget", Json::from(attached_pct <= 25.0)),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write artifact");
    eprintln!("-> {out_path}");
}
