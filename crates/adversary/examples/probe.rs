//! Quick probe: run P_F against the manager suite at scaled parameters and
//! print measured waste factors next to Theorem 1's bound.

use pcb_adversary::{optimal_rho, PfConfig, PfProgram};
use pcb_alloc::ManagerKind;
use pcb_heap::{Execution, Heap, Params};

fn main() {
    let (m, log_n) = (1u64 << 16, 12u32);
    for c in [10u64, 20, 50, 100] {
        let (rho, h) = optimal_rho(m, log_n, c).unwrap();
        println!("c={c} rho={rho} h={h:.3} x={:.4}", {
            let cfg = PfConfig::new(m, log_n, c).unwrap();
            cfg.x()
        });
        for kind in ManagerKind::ALL {
            let cfg = PfConfig::new(m, log_n, c).unwrap().with_validation();
            let program = PfProgram::new(cfg);
            let heap = Heap::new(c);
            let params = Params::new(m, log_n, c).unwrap();
            let mut exec = Execution::new(heap, program, kind.build(&params));
            match exec.run_summary() {
                Ok(report) => {
                    let viol = exec.program().violations().len();
                    println!(
                        "  {:16} HS/M = {:.3}  moved = {:.4}  q1={} q2={} viol={}",
                        exec.manager().name(),
                        report.waste_factor,
                        report.moved_fraction,
                        exec.program().q1_words(),
                        exec.program().q2_words(),
                        viol,
                    );
                }
                Err(e) => println!("  {:16} FAILED: {e}", kind.name()),
            }
        }
    }
}
