//! Benchmark of the occupancy referee ([`SpaceMap`]).
//!
//! For every cell of a pinned `(M, log₂ n, c, manager)` grid drawn from
//! the empirical experiment, the bench:
//!
//! 1. runs the full `P_F` simulation end-to-end once;
//! 2. records the execution's event stream once and replays the
//!    occupy/release ops against a bare [`SpaceMap`], best-of-N — this
//!    isolates the referee from the manager mirrors and the adversary
//!    bookkeeping;
//! 3. times the observability window-query surface (the
//!    `occupied_words_in` sweep behind the heat map plus the `gaps()`
//!    walk behind fragmentation snapshots) on the final replayed state.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin heap_bench \
//!     [-- --smoke] [-- --out <path>] [-- --trace-out <path>]
//! ```
//!
//! `--smoke` shrinks every cell (CI); the default takes the best of
//! three replay iterations per cell. The artifact lands at
//! `BENCH_heap.json` unless `--out` overrides it. Smoke and full mode
//! run the *same number* of cells so `pcb bench diff` can
//! structure-check a smoke artifact against the checked-in full
//! baseline. `--trace-out` records spans and the referee's high-water
//! counters in Chrome trace-event format.

use std::hint::black_box;
use std::time::Instant;

use pcb_telemetry as telemetry;

use partial_compaction::heap::{Addr, Event, Extent, ObjectId, Recorder, Size, SpaceMap};
use partial_compaction::{parallel, sim, ManagerKind, Params};
use pcb_json::{Json, ToJson};

/// One grid cell of the benchmark.
struct Cell {
    m: u64,
    log_n: u32,
    c: u64,
    manager: ManagerKind,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{}/M={},log_n={},c={}",
            self.manager, self.m, self.log_n, self.c
        )
    }
}

/// The pinned grid: the empirical experiment's parameter sets with the
/// manager suite rotated across them so every cell count stays at 12 in
/// both modes (`pcb bench diff` enforces array lengths even across
/// hosts). Smoke cells shrink `M` so CI finishes in seconds.
fn grid(smoke: bool) -> Vec<Cell> {
    let shapes: [(u64, u32); 3] = if smoke {
        [(1 << 12, 9), (1 << 13, 9), (1 << 13, 10)]
    } else {
        [(1 << 14, 10), (1 << 16, 10), (1 << 18, 12)]
    };
    let mut cells = Vec::new();
    for (m, log_n) in shapes {
        for c in [10u64, 20, 50, 100] {
            let manager = ManagerKind::ALL[cells.len() % ManagerKind::ALL.len()];
            cells.push(Cell {
                m,
                log_n,
                c,
                manager,
            });
        }
    }
    cells
}

/// A mutation against the referee, distilled from the event
/// stream (round markers dropped). A `Moved` event becomes the
/// release-then-occupy pair the heap performs internally.
#[derive(Clone, Copy)]
enum ReplayOp {
    Occupy(ObjectId, Addr, Size),
    Release(Addr),
}

fn distill(recorder: &Recorder) -> Vec<ReplayOp> {
    let mut ops = Vec::new();
    for &(_, event) in recorder.events() {
        match event {
            Event::Placed { id, addr, size } => ops.push(ReplayOp::Occupy(id, addr, size)),
            Event::Freed { addr, .. } => ops.push(ReplayOp::Release(addr)),
            Event::Moved { id, from, to, size } => {
                ops.push(ReplayOp::Release(from));
                ops.push(ReplayOp::Occupy(id, to, size));
            }
            Event::RoundStart { .. } | Event::RoundEnd { .. } => {}
        }
    }
    ops
}

/// Replays the distilled op stream against a bare [`SpaceMap`]; the
/// heap's object table, budget ledger, and stats are covered by the
/// end-to-end timings. Returns the final map for the window-query phase.
fn replay(ops: &[ReplayOp]) -> SpaceMap {
    let mut space = SpaceMap::new();
    for &op in ops {
        match op {
            ReplayOp::Occupy(id, addr, size) => space
                .occupy(id, Extent::new(addr, size))
                .expect("recorded placement replays"),
            ReplayOp::Release(addr) => space
                .release(addr)
                .map(|_| ())
                .expect("recorded free replays"),
        }
    }
    space
}

/// The observability window surface: the heat-map's `occupied_words_in`
/// sweep (256 buckets over the used span) plus the fragmentation
/// snapshot's `gaps()` walk, repeated `rounds` times as the engine does
/// once per round.
fn window_sweep(space: &SpaceMap, rounds: u32) -> u64 {
    const BUCKETS: u64 = 256;
    let span = space.frontier().get();
    let bucket = (span / BUCKETS).max(1);
    let mut acc = 0u64;
    for _ in 0..rounds {
        let mut lo = 0u64;
        while lo < span {
            let hi = (lo + bucket).min(span);
            acc += space.occupied_words_in(Extent::from_raw(lo, hi - lo)).get();
            lo = hi;
        }
        for gap in space.gaps() {
            acc += gap.size().get();
        }
    }
    acc
}

/// Best-of-`iters` wall clock around `run`, returning the last value.
fn timed<T>(iters: u32, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let start = Instant::now();
        out = Some(black_box(run()));
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out.expect("at least one iteration"))
}

/// One end-to-end simulation of the cell, serialized.
fn simulate(cell: &Cell) -> String {
    let params = Params::new(cell.m, cell.log_n, cell.c).expect("grid cell is a valid Params");
    sim::Sim::new(params)
        .adversary(sim::Adversary::PF)
        .manager(cell.manager)
        .run()
        .expect("grid cell runs")
        .to_json()
        .to_string()
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
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_heap.json".into());
    let trace_out = flag_value(&args, "--trace-out");
    if trace_out.is_some() {
        telemetry::enable();
    }
    let iters: u32 = if smoke { 1 } else { 3 };
    let sweep_rounds: u32 = if smoke { 4 } else { 16 };
    let threads = parallel::thread_count();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows: Vec<Json> = Vec::new();
    let (mut total_replay, mut total_e2e, mut total_window) = (0.0f64, 0.0f64, 0.0f64);
    let mut total_ops = 0u64;
    for cell in grid(smoke) {
        let params = Params::new(cell.m, cell.log_n, cell.c).expect("grid cell is a valid Params");
        // End-to-end, unobserved.
        let (e2e, _) = timed(1, || simulate(&cell));
        // Record the op stream once (observer overhead excluded from all
        // timed runs) and replay it against the bare referee.
        let mut recorder = Recorder::new();
        sim::Sim::new(params)
            .adversary(sim::Adversary::PF)
            .manager(cell.manager)
            .observe(&mut recorder)
            .run()
            .expect("observed run matches the timed runs");
        let ops = distill(&recorder);
        let (replay_s, final_space) = {
            let _span = telemetry::span!("bench.bitmap_replay");
            timed(iters, || replay(&ops))
        };
        // Window-query surface on the final replayed state.
        let (window, _) = timed(iters, || window_sweep(&final_space, sweep_rounds));
        if telemetry::enabled() {
            let c = final_space.counters();
            telemetry::record_max("space.words_scanned", c.words_scanned);
            telemetry::record_max("space.summary_skips", c.summary_skips);
            telemetry::record_max("space.slot_high_water", c.slot_high_water);
            telemetry::record_max("space.slots_reused", c.slots_reused);
        }

        let op_count = ops.len() as u64;
        eprintln!(
            "{:36} {:8} ops  replay {:7.4}s  windows {:7.4}s  e2e {:7.4}s",
            cell.label(),
            op_count,
            replay_s,
            window,
            e2e,
        );
        total_replay += replay_s;
        total_e2e += e2e;
        total_window += window;
        total_ops += op_count;
        rows.push(Json::object([
            ("name", Json::from(cell.label().as_str())),
            ("ops", Json::from(op_count)),
            ("events", Json::from(recorder.len() as u64)),
            ("bitmap_replay_seconds", Json::from(replay_s)),
            (
                "bitmap_throughput_ops_per_sec",
                Json::from(op_count as f64 / replay_s),
            ),
            ("bitmap_window_seconds", Json::from(window)),
            ("bitmap_e2e_seconds", Json::from(e2e)),
        ]));
    }

    let report = Json::object([
        ("smoke", Json::from(smoke)),
        ("threads", Json::from(threads)),
        ("host_cores", Json::from(host_cores)),
        ("iters_per_cell", Json::from(iters)),
        ("sweep_rounds", Json::from(sweep_rounds)),
        ("total_ops", Json::from(total_ops)),
        ("cells", Json::Array(rows)),
        ("total_bitmap_replay_seconds", Json::from(total_replay)),
        ("total_bitmap_window_seconds", Json::from(total_window)),
        ("total_bitmap_e2e_seconds", Json::from(total_e2e)),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write artifact");
    eprintln!(
        "total: replay {total_replay:.4}s, windows {total_window:.4}s, \
         e2e {total_e2e:.4}s -> {out_path}"
    );
    if let Some(path) = trace_out {
        telemetry::disable();
        let trace = telemetry::take_trace();
        let doc = trace.to_chrome_trace();
        std::fs::write(&path, format!("{doc}\n")).expect("write trace");
        eprintln!(
            "trace: {} spans, {} high-water counters -> {path}",
            trace.len(),
            trace.counters.len()
        );
    }
}
