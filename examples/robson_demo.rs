//! Robson's classic bad program `P_R` versus the non-moving allocator
//! suite — the paper's Figure 5 scenario, run for real.
//!
//! Every non-moving manager is forced to at least
//! `M·(½·log₂ n + 1) − n + 1` words of heap; the offset-selection trace
//! (`f_i` per step) is printed so you can watch the adversary home in on
//! the most expensive residue class.
//!
//! ```text
//! cargo run --release --example robson_demo
//! ```

use partial_compaction::{sim, Execution, Heap, ManagerKind, Params, RobsonProgram};

fn main() {
    let m = 1u64 << 12;
    let log_n = 6u32;
    let params = Params::new(m, log_n, 10).expect("valid");
    let bound = RobsonProgram::robson_lower_bound(m, log_n);

    println!(
        "Robson's P_R: M = {m} words, n = {} words; bound = {bound:.0} words ({:.2}x)",
        1 << log_n,
        bound / m as f64
    );
    println!();
    println!("{:>16} {:>10} {:>8}", "manager", "HS", "HS/M");
    for kind in ManagerKind::NON_MOVING {
        let report = sim::Sim::new(params)
            .adversary(sim::Adversary::Robson)
            .manager(kind)
            .run()
            .expect("runs");
        println!(
            "{:>16} {:>10} {:>8.3}{}",
            report.manager,
            report.execution.heap_size,
            report.execution.waste_factor,
            if (report.execution.heap_size as f64) >= bound {
                ""
            } else {
                "  <-- IMPOSSIBLE (bug!)"
            }
        );
    }

    // Show the adversary's internals once, against the Robson-style
    // allocator (the strongest victim).
    println!();
    println!("Offset-selection trace against robson-aligned:");
    let program = RobsonProgram::new(m, log_n);
    let manager = ManagerKind::Robson.build(&params);
    let mut exec = Execution::new(Heap::non_moving(), program, manager);
    exec.run_summary().expect("runs");
    let (heap, program, _) = exec.into_parts();
    println!(
        "{:>5} {:>6} {:>10} {:>12}",
        "step", "f_i", "survivors", "words freed"
    );
    for s in program.step_log() {
        println!(
            "{:>5} {:>6} {:>10} {:>12}",
            s.step, s.f, s.survivors, s.words_freed
        );
    }
    println!();
    println!(
        "final heap: {} words = {:.3}x M (bound {:.3}x)",
        heap.heap_size().get(),
        heap.heap_size().get() as f64 / m as f64,
        bound / m as f64
    );
}
