//! Benchmark of the exhaustive worst-case search.
//!
//! Runs a pinned grid of `(M, log₂ n, policy)` cells through the
//! packed/interned pipeline behind `exhaustive::try_worst_case` and
//! emits a machine-readable JSON artifact with the certified worst case,
//! states/second and seen-set bytes/state for each cell. Equivalence with
//! the seed search is tested, not benchmarked: the seed lives on as a
//! test oracle (`crates/core/tests/oracle/`).
//!
//! ```text
//! cargo run --release -p pcb-bench --bin search_bench \
//!     [-- --smoke] [-- --out <path>] [-- --trace-out <path>]
//! ```
//!
//! `--smoke` shrinks every cell (CI); the default takes the best of
//! three iterations per cell. The artifact lands at `BENCH_search.json`
//! unless `--out` overrides it. Smoke and full mode run the *same
//! number* of cells so `pcb bench diff` can structure-check a smoke
//! artifact against the checked-in full baseline. `--trace-out` records
//! the search's spans in Chrome trace-event format.

use std::time::Instant;

use partial_compaction::metrics::{self, spans};

use partial_compaction::exhaustive::{try_worst_case, SearchPolicy};
use partial_compaction::{parallel, Params};
use pcb_json::Json;

/// One grid cell.
struct Cell {
    m: u64,
    log_n: u32,
    policy: SearchPolicy,
}

impl Cell {
    fn new(m: u64, log_n: u32, policy: SearchPolicy) -> Cell {
        Cell { m, log_n, policy }
    }

    fn label(&self) -> String {
        format!("{}/M={},log_n={}", self.policy.name(), self.m, self.log_n)
    }
}

/// The pinned grid. Smoke cells are tiny (hundreds to thousands of
/// states) so CI finishes in seconds; full cells reach half a million
/// states. Both modes have the same cell count on purpose: `pcb bench
/// diff` enforces array lengths even across hosts.
fn grid(smoke: bool) -> Vec<Cell> {
    if smoke {
        vec![
            Cell::new(6, 1, SearchPolicy::FirstFit),
            Cell::new(6, 1, SearchPolicy::BestFit),
            Cell::new(6, 1, SearchPolicy::NextFit),
            Cell::new(8, 1, SearchPolicy::FirstFit),
        ]
    } else {
        vec![
            Cell::new(8, 2, SearchPolicy::FirstFit),
            Cell::new(8, 2, SearchPolicy::BestFit),
            Cell::new(8, 2, SearchPolicy::NextFit),
            Cell::new(10, 2, SearchPolicy::FirstFit),
        ]
    }
}

const MAX_STATES: usize = 50_000_000;

/// Best-of-`iters` wall clock around `run`, returning the last value.
fn timed<T>(iters: u32, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let start = Instant::now();
        out = Some(run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out.expect("at least one iteration"))
}

/// Value of `--<flag> <path>` style options.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} requires a path");
            std::process::exit(2);
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_search.json".into());
    let trace_out = flag_value(&args, "--trace-out");
    if trace_out.is_some() {
        spans::enable();
    }
    let iters: u32 = if smoke { 1 } else { 3 };
    let threads = parallel::thread_count();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows: Vec<Json> = Vec::new();
    let mut total = 0.0f64;
    for cell in grid(smoke) {
        let params = Params::new(cell.m, cell.log_n, 10).expect("grid cell is a valid Params");
        let (seconds, report) = {
            let _span = metrics::span!("bench.packed_search");
            timed(iters, || {
                try_worst_case(params, cell.policy, MAX_STATES).expect("grid cell is toy-scale")
            })
        };
        let states = report.worst.states as f64;
        let bytes_per_state = report.stats.resident_bytes as f64 / states;
        eprintln!(
            "{:24} {:9} states  {:7.3}s  {:4.1} bytes/state",
            cell.label(),
            report.worst.states,
            seconds,
            bytes_per_state,
        );
        total += seconds;
        rows.push(Json::object([
            ("name", Json::from(cell.label().as_str())),
            ("heap_size", Json::from(report.worst.heap_size)),
            ("states", Json::from(report.worst.states as u64)),
            ("levels", Json::from(report.stats.levels as u64)),
            (
                "peak_frontier",
                Json::from(report.stats.peak_frontier as u64),
            ),
            ("seconds", Json::from(seconds)),
            ("throughput_states_per_sec", Json::from(states / seconds)),
            ("bytes_per_state", Json::from(bytes_per_state)),
        ]));
    }

    let report = Json::object([
        ("smoke", Json::from(smoke)),
        ("threads", Json::from(threads)),
        ("host_cores", Json::from(host_cores)),
        ("iters_per_cell", Json::from(iters)),
        ("max_states", Json::from(MAX_STATES as u64)),
        ("cells", Json::Array(rows)),
        ("total_seconds", Json::from(total)),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write artifact");
    eprintln!("total {total:.3}s -> {out_path}");
    if let Some(path) = trace_out {
        spans::disable();
        let trace = spans::take_trace();
        let doc = trace.to_chrome_trace();
        std::fs::write(&path, format!("{doc}\n")).expect("write trace");
        eprintln!("trace: {} spans -> {path}", trace.len());
    }
}
