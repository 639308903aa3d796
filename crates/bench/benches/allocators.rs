//! Benches for the manager substrate itself: allocation/free throughput
//! under fragmentation-heavy churn (not a paper figure, but the baseline
//! cost model for all empirical experiments).

use std::hint::black_box;

use partial_compaction::heap::{Execution, Heap, ScriptedProgram, Size};
use partial_compaction::{ManagerKind, Params};
use pcb_bench::harness::bench;

/// A deterministic churn: interleaved sizes with periodic frees.
fn churn_script(rounds: usize) -> ScriptedProgram {
    let mut program = ScriptedProgram::new(Size::new(1 << 14));
    let mut base = 0usize;
    for r in 0..rounds {
        let sizes: Vec<u64> = (0..64).map(|i| 1 + ((i + r) % 16) as u64).collect();
        let frees: Vec<usize> = if r == 0 {
            Vec::new()
        } else {
            (base - 64..base).step_by(2).collect()
        };
        program = program.round(frees, sizes);
        base += 64;
    }
    program
}

fn main() {
    for kind in ManagerKind::ALL {
        bench(&format!("churn/{}", kind.name()), 10, || {
            let heap = Heap::with_c(kind.heap_c(false, 10));
            let mut exec = Execution::new(
                heap,
                churn_script(24),
                kind.build(&Params::new(1 << 14, 6, 10).expect("valid")),
            );
            black_box(exec.run().expect("churn runs"))
        });
    }
}
