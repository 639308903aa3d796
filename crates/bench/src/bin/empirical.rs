//! Experiments E5/E6: run the paper's adversaries against the full
//! manager suite at laptop-scale parameters and compare the measured
//! waste factor with the theoretical bounds.
//!
//! * default: `P_F` vs every manager (`ratio = waste/h` must be ≥ 1 —
//!   the Theorem 1 lower bound certified per manager);
//! * `--robson`: Robson's `P_R` vs the non-moving managers, compared with
//!   `M(½ log n + 1) − n + 1`;
//! * `--validate`: additionally run the Claim 4.16 potential-function
//!   checks during each `P_F` execution.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin empirical [-- --robson] [-- --validate]
//! ```

use partial_compaction::figures::to_csv;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let robson = args.iter().any(|a| a == "--robson");
    let validate = args.iter().any(|a| a == "--validate");

    if robson {
        println!("# E6: Robson's P_R vs non-moving managers");
        println!("# h column = Robson bound factor (M(log n/2 + 1) - n + 1)/M; ratio = waste/h");
        let rows = pcb_bench::run_robson_empirical();
        print!("{}", to_csv(&rows));
        let below: Vec<_> = rows.iter().filter(|r| r.ratio < 1.0).collect();
        eprintln!(
            "{} runs, {} below the bound (must be 0): {:?}",
            rows.len(),
            below.len(),
            below
        );
    } else {
        println!("# E5: P_F vs the manager suite");
        println!("# h = Theorem 1 bound; ratio = waste/h (>= 1 certifies the bound)");
        let rows = pcb_bench::run_empirical(validate);
        print!("{}", to_csv(&rows));
        let worst = rows
            .iter()
            .min_by(|a, b| a.ratio.total_cmp(&b.ratio))
            .expect("non-empty");
        eprintln!(
            "{} runs; worst ratio {:.3} ({} at c={}, M={})",
            rows.len(),
            worst.ratio,
            worst.manager,
            worst.c,
            worst.m
        );
    }
}
