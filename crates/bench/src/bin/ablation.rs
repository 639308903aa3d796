//! Experiment E7: the §3.1 ablation. Runs `P_F` with each of the paper's
//! three improvements toggled off (and the all-off POPL'11-style
//! baseline) against representative managers, reporting the measured
//! waste factor.
//!
//! Note the improvements strengthen the *provable worst-case bound*; the
//! empirical ordering against any one concrete manager can differ (e.g.
//! the greedy baseline allocates more per step and can out-fragment the
//! regimented program against a naive non-mover). The table is
//! descriptive.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin ablation
//! ```

use partial_compaction::figures::to_csv;

fn main() {
    println!("# E7: P_F variant ablation (M = 2^16 words, n = 2^10 words)");
    let rows = pcb_bench::run_ablation();
    print!("{}", to_csv(&rows));
    println!();
    println!("# E7b: page-geometry ablation of the Theorem-2-style manager");
    println!("# (objects per page; the paper's Section 4 analysis uses factor 4)");
    let rows = pcb_bench::run_geometry_ablation();
    print!("{}", to_csv(&rows));
}
