//! Benchmark of the manager-side free-space mirror ([`FreeSpace`]).
//!
//! Two families of cells:
//!
//! 1. **Op cells** drive a bare [`FreeSpace`] with a deterministic
//!    synthetic churn stream — takes under each fit discipline plus the
//!    aligned (buddy-style) path, interleaved with releases of random
//!    live extents — best-of-N. A checksum of every returned address is
//!    recorded as an identity field, so `pcb bench diff` fails if a
//!    placement ever changes.
//! 2. **E2e cells** time the full `P_F` simulation against every manager
//!    in the suite.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin alloc_bench [-- --smoke] [-- --out <path>]
//! ```
//!
//! `--smoke` shrinks every cell (CI); both modes run the *same number*
//! of cells so `pcb bench diff` can structure-check a smoke artifact
//! against the checked-in full baseline at `BENCH_alloc.json`.

use std::hint::black_box;
use std::time::Instant;

use partial_compaction::alloc::{FitPolicy, FreeSpace};
use partial_compaction::heap::{Addr, Recorder, Size};
use partial_compaction::{parallel, sim, ManagerKind, Params};
use pcb_json::{Json, ToJson};

/// How an op cell turns a size into a take against the mirror.
#[derive(Clone, Copy)]
enum TakeMode {
    /// `take(size, policy)` under a fixed fit discipline.
    Policy(FitPolicy),
    /// `take_next_fit(size, &mut cursor)` with a rolling cursor.
    NextFit,
    /// `take_aligned(size, size)` on power-of-two sizes — the buddy
    /// path, under the buddy invariant (carves stay aligned; a
    /// non-aligned churn stream would degenerate into full address scans
    /// no aligned-path manager ever produces).
    Aligned,
}

/// One mirror-op benchmark cell.
struct OpCell {
    name: &'static str,
    mode: TakeMode,
}

fn op_cells() -> Vec<OpCell> {
    vec![
        OpCell {
            name: "churn/first-fit",
            mode: TakeMode::Policy(FitPolicy::FirstFit),
        },
        OpCell {
            name: "churn/best-fit",
            mode: TakeMode::Policy(FitPolicy::BestFit),
        },
        OpCell {
            name: "churn/worst-fit",
            mode: TakeMode::Policy(FitPolicy::WorstFit),
        },
        OpCell {
            name: "churn/next-fit",
            mode: TakeMode::NextFit,
        },
        OpCell {
            name: "churn/aligned",
            mode: TakeMode::Aligned,
        },
    ]
}

/// One operation of the synthetic churn stream.
#[derive(Clone, Copy)]
enum MirrorOp {
    /// Take `size` words (the cell's [`TakeMode`] decides how).
    Take(u64),
    /// Release the `pick % live`-th live extent.
    Release(usize),
}

/// xorshift64: deterministic sizes and release picks without a rand dep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A churn stream: a pure-take warmup builds a fragmented live set, then
/// takes and releases alternate evenly so the live population (and thus
/// the gap structure the mirror must index) stays at its high-water
/// level for the rest of the run. Sizes skew small with an occasional
/// large outlier, like the paper's powers-of-two size classes.
fn churn_stream(total: usize, seed: u64) -> Vec<MirrorOp> {
    let mut rng = Rng(seed);
    let warmup = total / 8;
    let mut ops = Vec::with_capacity(total);
    for i in 0..total {
        let r = rng.next();
        let take = i < warmup || r.is_multiple_of(2);
        if take {
            let size = if r.is_multiple_of(29) {
                1 + (r >> 8) % 1024
            } else {
                1 + (r >> 8) % 64
            };
            ops.push(MirrorOp::Take(size));
        } else {
            ops.push(MirrorOp::Release((r >> 8) as usize));
        }
    }
    ops
}

/// Replays the stream against a fresh mirror, folding every answer into
/// a checksum: a change to any placement or free changes the digest.
fn replay(cell: &OpCell, ops: &[MirrorOp]) -> u64 {
    let mut space = FreeSpace::new();
    let mut cursor = Addr::ZERO;
    let mut taken: Vec<(Addr, Size)> = Vec::new();
    let mut digest = 0u64;
    for &op in ops {
        match op {
            MirrorOp::Take(words) => {
                let (size, addr) = match cell.mode {
                    TakeMode::Policy(policy) => {
                        let size = Size::new(words);
                        (size, space.take(size, policy))
                    }
                    TakeMode::NextFit => {
                        let size = Size::new(words);
                        (size, space.take_next_fit(size, &mut cursor))
                    }
                    TakeMode::Aligned => {
                        let pow2 = words.next_power_of_two();
                        let size = Size::new(pow2);
                        (size, space.take_aligned(size, pow2))
                    }
                };
                digest = digest.wrapping_mul(31).wrapping_add(addr.get());
                taken.push((addr, size));
            }
            MirrorOp::Release(pick) => {
                if taken.is_empty() {
                    continue;
                }
                let (addr, size) = taken.swap_remove(pick % taken.len());
                space.release(addr, size);
                digest = digest.wrapping_mul(31).wrapping_add(size.get());
            }
        }
    }
    digest
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

/// One end-to-end `P_F` simulation of `kind`, serialized.
fn simulate(kind: ManagerKind, params: Params) -> String {
    sim::Sim::new(params)
        .adversary(sim::Adversary::PF)
        .manager(kind)
        .run()
        .expect("e2e cell runs")
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
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_alloc.json".into());
    let iters: u32 = if smoke { 1 } else { 3 };
    let op_count: usize = if smoke { 40_000 } else { 400_000 };
    let (e2e_m, e2e_log_n) = if smoke { (1 << 12, 9) } else { (1 << 14, 10) };
    let threads = parallel::thread_count();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Mirror-op cells: the free-space index in isolation.
    let mut op_rows: Vec<Json> = Vec::new();
    let mut total_op = 0.0f64;
    for cell in op_cells() {
        let ops = churn_stream(op_count, 0x5eed_0001);
        let (secs, digest) = timed(iters, || replay(&cell, &ops));
        eprintln!(
            "{:18} {:8} ops  {:7.4}s  {:9.0} ops/s",
            cell.name,
            op_count,
            secs,
            op_count as f64 / secs,
        );
        total_op += secs;
        op_rows.push(Json::object([
            ("name", Json::from(cell.name)),
            ("ops", Json::from(op_count as u64)),
            ("digest", Json::from(digest)),
            ("indexed_seconds", Json::from(secs)),
            (
                "indexed_throughput_ops_per_sec",
                Json::from(op_count as f64 / secs),
            ),
        ]));
    }

    // E2e cells: every manager under P_F.
    let mut e2e_rows: Vec<Json> = Vec::new();
    let mut total_e2e = 0.0f64;
    for kind in ManagerKind::ALL {
        let params = Params::new(e2e_m, e2e_log_n, 20).expect("e2e cell is a valid Params");
        let (secs, _) = timed(1, || simulate(kind, params));
        // Count the placement/free event stream once (observer overhead
        // excluded from the timed run).
        let mut recorder = Recorder::new();
        sim::Sim::new(params)
            .adversary(sim::Adversary::PF)
            .manager(kind)
            .observe(&mut recorder)
            .run()
            .expect("observed run matches the timed run");
        let events = recorder.len() as u64;
        eprintln!(
            "e2e/{:16} {:8} events  {:7.4}s",
            kind.to_string(),
            events,
            secs,
        );
        total_e2e += secs;
        e2e_rows.push(Json::object([
            ("name", Json::from(format!("e2e/{kind}").as_str())),
            ("events", Json::from(events)),
            ("indexed_e2e_seconds", Json::from(secs)),
            (
                "indexed_throughput_events_per_sec",
                Json::from(events as f64 / secs),
            ),
        ]));
    }

    let report = Json::object([
        ("smoke", Json::from(smoke)),
        ("threads", Json::from(threads)),
        ("host_cores", Json::from(host_cores)),
        ("iters_per_cell", Json::from(iters)),
        ("ops_per_cell", Json::from(op_count as u64)),
        ("op_cells", Json::Array(op_rows)),
        ("e2e_cells", Json::Array(e2e_rows)),
        ("total_indexed_op_seconds", Json::from(total_op)),
        ("total_indexed_e2e_seconds", Json::from(total_e2e)),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write artifact");
    eprintln!("total: ops {total_op:.4}s, e2e {total_e2e:.4}s -> {out_path}");
}
