//! Watch fragmentation build up, round by round, as heap heat maps.
//!
//! ```text
//! cargo run --release --example fragmentation_map [-- <manager>]
//! ```
//!
//! Each printed row is the heap after one round of `P_F` (default manager
//! first-fit): `_` empty … `#` full. The signature of the paper's
//! construction is unmistakable — ever-larger regions pinned at the
//! density threshold, forcing every new allocation wave to fresh space.

use partial_compaction::heap::{heat_map, Execution, Heap, NullObserver, Program};
use partial_compaction::{ManagerKind, Params, PfConfig, PfProgram};

fn main() {
    let manager: ManagerKind = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "first-fit".into())
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let (m, log_n, c) = (1u64 << 14, 10u32, 20u64);
    let cfg = PfConfig::new(m, log_n, c).expect("feasible");
    let rho = cfg.rho;
    println!(
        "P_F vs {manager}: M = {m} words, n = 2^{log_n}, c = {c} (rho = {rho}, h = {:.3})",
        cfg.h
    );
    println!();

    // P_F needs a c-partial heap whatever the manager.
    let heap = Heap::with_c(manager.heap_c(true, c));
    let params = Params::new(m, log_n, c).expect("valid");
    let mut exec = Execution::new(heap, PfProgram::new(cfg), manager.build(&params));
    let mut obs = NullObserver;
    let mut round = 0u32;
    while !exec.program().finished() {
        exec.step_round(&mut obs).expect("round runs");
        let phase = if round == 0 {
            "fill   ".to_string()
        } else if round <= rho {
            format!("robson{round} ")
        } else if round < 2 * rho {
            "null   ".to_string()
        } else {
            format!("stage2/{round}")
        };
        println!(
            "{phase:>9} {} live={:>6} HS={:>6}",
            heat_map(exec.heap(), 64),
            exec.heap().live_words().get(),
            exec.heap().heap_size().get(),
        );
        round += 1;
    }
    println!();
    let report = exec.summary();
    println!(
        "final: HS/M = {:.3} (Theorem 1 floor for c-partial managers: {:.3})",
        report.waste_factor,
        partial_compaction::bounds::thm1::factor(params)
    );
}
