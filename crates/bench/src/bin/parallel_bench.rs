//! Wall-clock benchmark of the parallel experiment engine.
//!
//! Runs a fixed sweep / exhaustive-search / empirical workload twice —
//! once with `PCB_THREADS=1` (the exact sequential code path) and once
//! with the machine's full parallelism — verifies both produce identical
//! results, and emits a machine-readable JSON artifact with wall-clock
//! times, throughput, and speedups.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin parallel_bench \
//!     [-- --smoke] [-- --out <path>] [-- --trace-out <path>]
//! ```
//!
//! `--smoke` shrinks every workload and runs one iteration (CI); the
//! default takes the best of three iterations per configuration. The
//! artifact lands at `BENCH_parallel.json` unless `--out` overrides it.
//! `--trace-out` records an engine span trace of the whole benchmark and
//! writes it in Chrome trace-event format (Perfetto-loadable).
//!
//! The artifact records `host_cores` next to `threads`: a "speedup"
//! measured with more worker threads than physical cores is time-slicing,
//! not parallelism, and the bench says so instead of implying a claim.

use std::time::Instant;

use partial_compaction::metrics::{self, spans};

use partial_compaction::exhaustive::{worst_case, SearchPolicy};
use partial_compaction::sweep::{over_c, Bound};
use partial_compaction::{parallel, sim, ManagerKind, Params};
use pcb_json::{Json, ToJson};

/// One benchmark workload: a named closure whose return value is a
/// deterministic fingerprint of everything it computed.
struct Workload {
    name: &'static str,
    items: usize,
    run: Box<dyn Fn() -> String>,
}

fn empirical_workload(smoke: bool) -> Workload {
    let shifts: &[(u32, u32)] = if smoke {
        &[(14, 10)]
    } else {
        &[(14, 10), (16, 10)]
    };
    let cs: &[u64] = if smoke { &[20] } else { &[10, 20, 50, 100] };
    let mut cells: Vec<(Params, ManagerKind)> = Vec::new();
    for &(m_shift, log_n) in shifts {
        for &c in cs {
            let params = Params::new(1 << m_shift, log_n, c).expect("valid grid point");
            for kind in ManagerKind::ALL {
                cells.push((params, kind));
            }
        }
    }
    Workload {
        name: "empirical",
        items: cells.len(),
        run: Box::new(move || {
            let reports = parallel::par_map(&cells, |&(params, kind)| {
                sim::Sim::new(params)
                    .manager(kind)
                    .run()
                    .expect("grid cell runs")
            });
            reports
                .iter()
                .map(|r| r.to_json().to_string())
                .collect::<Vec<_>>()
                .join("\n")
        }),
    }
}

fn search_workload(smoke: bool) -> Workload {
    let cases: Vec<(u64, u32, SearchPolicy)> = if smoke {
        vec![(6, 1, SearchPolicy::FirstFit)]
    } else {
        vec![
            (8, 2, SearchPolicy::FirstFit),
            (8, 2, SearchPolicy::BestFit),
        ]
    };
    Workload {
        name: "search",
        items: cases.len(),
        run: Box::new(move || {
            cases
                .iter()
                .map(|&(m, log_n, policy)| {
                    let params = Params::new(m, log_n, 10).expect("toy params");
                    let wc = worst_case(params, policy, 10_000_000);
                    format!(
                        "{}/{}: HS={} states={}",
                        policy.name(),
                        params,
                        wc.heap_size,
                        wc.states
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        }),
    }
}

fn sweep_workload(smoke: bool) -> Workload {
    let hi: u64 = if smoke { 100 } else { 3000 };
    Workload {
        name: "sweep",
        items: 2 * (hi - 10 + 1) as usize,
        run: Box::new(move || {
            let lower = over_c(Bound::Thm1Lower, 1 << 28, 20, 10..=hi);
            let upper = over_c(Bound::Thm2Upper, 1 << 28, 20, 10..=hi);
            format!("{}\n{}", lower.to_json(), upper.to_json())
        }),
    }
}

/// Best-of-`iters` wall clock plus the last fingerprint.
fn timed(iters: u32, run: &dyn Fn() -> String) -> (f64, String) {
    let mut best = f64::INFINITY;
    let mut fingerprint = String::new();
    for _ in 0..iters {
        let start = Instant::now();
        fingerprint = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, fingerprint)
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
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_parallel.json".into());
    let trace_out = flag_value(&args, "--trace-out");
    if trace_out.is_some() {
        spans::enable();
    }
    let iters: u32 = if smoke { 1 } else { 3 };

    // The parallel phase honours whatever PCB_THREADS the caller set; the
    // sequential phase pins it to 1. Both phases run with no worker
    // threads alive, so mutating the variable is race-free.
    let caller_threads = std::env::var("PCB_THREADS").ok();
    std::env::set_var("PCB_THREADS", "1");
    assert_eq!(parallel::thread_count(), 1);
    let restore = || match &caller_threads {
        Some(v) => std::env::set_var("PCB_THREADS", v),
        None => std::env::remove_var("PCB_THREADS"),
    };
    restore();
    let threads = parallel::thread_count();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let workloads = [
        sweep_workload(smoke),
        search_workload(smoke),
        empirical_workload(smoke),
    ];

    let mut rows: Vec<Json> = Vec::new();
    let (mut total_seq, mut total_par) = (0.0f64, 0.0f64);
    for workload in &workloads {
        std::env::set_var("PCB_THREADS", "1");
        let (seq_seconds, seq_fingerprint) = {
            let _span = metrics::span!("bench.sequential");
            timed(iters, &workload.run)
        };
        restore();
        let (par_seconds, par_fingerprint) = {
            let _span = metrics::span!("bench.parallel");
            timed(iters, &workload.run)
        };
        assert_eq!(
            seq_fingerprint, par_fingerprint,
            "{}: parallel run diverged from sequential",
            workload.name
        );
        let speedup = seq_seconds / par_seconds;
        eprintln!(
            "{:10} {:4} items  seq {:8.3}s  par {:8.3}s  speedup {:.2}x",
            workload.name, workload.items, seq_seconds, par_seconds, speedup
        );
        total_seq += seq_seconds;
        total_par += par_seconds;
        rows.push(Json::object([
            ("name", Json::from(workload.name)),
            ("items", Json::from(workload.items)),
            ("seq_seconds", Json::from(seq_seconds)),
            ("par_seconds", Json::from(par_seconds)),
            ("speedup", Json::from(speedup)),
            (
                "throughput_items_per_sec",
                Json::from(workload.items as f64 / par_seconds),
            ),
            ("identical", Json::from(true)),
        ]));
    }

    // A run that oversubscribes the host (more worker threads than cores)
    // measures time-slicing overhead, not parallel speedup; say so rather
    // than implying a claim the hardware cannot support.
    let speedup_meaningful = host_cores >= threads;
    if !speedup_meaningful {
        eprintln!(
            "warning: {threads} threads on a {host_cores}-core host — the \
             \"speedup\" figures measure oversubscription, not parallelism; \
             treat them as a correctness exercise only"
        );
    }

    let report = Json::object([
        ("smoke", Json::from(smoke)),
        ("threads", Json::from(threads)),
        ("host_cores", Json::from(host_cores)),
        ("speedup_meaningful", Json::from(speedup_meaningful)),
        ("iters_per_config", Json::from(iters)),
        ("workloads", Json::Array(rows)),
        ("total_seq_seconds", Json::from(total_seq)),
        ("total_par_seconds", Json::from(total_par)),
        ("overall_speedup", Json::from(total_seq / total_par)),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write artifact");
    if speedup_meaningful {
        eprintln!(
            "overall speedup {:.2}x on {threads} threads ({host_cores} cores) -> {out_path}",
            total_seq / total_par
        );
    } else {
        eprintln!(
            "seq/par identity verified on {threads} threads ({host_cores} cores) -> {out_path}"
        );
    }
    if let Some(path) = trace_out {
        spans::disable();
        let trace = spans::take_trace();
        let doc = trace.to_chrome_trace();
        std::fs::write(&path, format!("{doc}\n")).expect("write trace");
        eprintln!(
            "trace: {} spans on {} tracks -> {path}",
            trace.len(),
            trace.tracks.len()
        );
    }
}
