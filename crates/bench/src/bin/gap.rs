//! Experiment E9: the benchmark-vs-worst-case gap.
//!
//! The paper is explicit that its bounds are worst-case only: "they do
//! not rule out achieving a better behavior on a suite of benchmarks."
//! This experiment quantifies that remark: run realistic workloads
//! (steady churn, phased ramps) and the adversary `P_F` against the same
//! managers at the same parameters, and print the measured waste factors
//! side by side with Theorem 1's `h`.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin gap
//! ```

use partial_compaction::figures::to_csv;
use partial_compaction::workload::{ChurnConfig, ChurnWorkload, RampConfig, RampWorkload};
use partial_compaction::{bounds, sim, Execution, Heap, ManagerKind, Params};

#[derive(Debug)]
struct GapRow {
    workload: String,
    manager: String,
    waste: f64,
    worst_case_h: f64,
    fraction_of_worst: f64,
}

impl pcb_json::ToJson for GapRow {
    fn to_json(&self) -> pcb_json::Json {
        use pcb_json::Json;
        Json::object([
            ("workload", Json::from(self.workload.as_str())),
            ("manager", Json::from(self.manager.as_str())),
            ("waste", Json::from(self.waste)),
            ("worst_case_h", Json::from(self.worst_case_h)),
            ("fraction_of_worst", Json::from(self.fraction_of_worst)),
        ])
    }
}

fn main() {
    let (m, log_n, c) = (1u64 << 14, 8u32, 20u64);
    let params = Params::new(m, log_n, c).expect("valid");
    let h = bounds::thm1::factor(params);

    println!("# E9: benchmark vs worst case (M = 2^14, n = 2^8 words, c = 20)");
    let mut rows = Vec::new();
    let managers = [
        ManagerKind::FirstFit,
        ManagerKind::BestFit,
        ManagerKind::Buddy,
        ManagerKind::CompactingBp11,
        ManagerKind::PagesThm2,
    ];

    for kind in managers {
        let heap = || Heap::with_c(kind.heap_c(false, c));

        let churn = {
            let cfg = ChurnConfig::typical(m, log_n);
            let mut exec = Execution::new(heap(), ChurnWorkload::new(cfg), kind.build(&params));
            exec.run().expect("churn runs")
        };
        rows.push(GapRow {
            workload: "churn-typical".into(),
            manager: kind.name().into(),
            waste: churn.waste_factor,
            worst_case_h: h,
            fraction_of_worst: churn.waste_factor / h,
        });

        let ramp = {
            let cfg = RampConfig::benign(m, log_n);
            let mut exec = Execution::new(heap(), RampWorkload::new(cfg), kind.build(&params));
            exec.run().expect("ramp runs")
        };
        rows.push(GapRow {
            workload: "ramp-benign".into(),
            manager: kind.name().into(),
            waste: ramp.waste_factor,
            worst_case_h: h,
            fraction_of_worst: ramp.waste_factor / h,
        });

        let escalating = {
            let cfg = RampConfig::escalating(m, log_n);
            let mut exec = Execution::new(heap(), RampWorkload::new(cfg), kind.build(&params));
            exec.run().expect("escalating ramp runs")
        };
        rows.push(GapRow {
            workload: "ramp-escalating".into(),
            manager: kind.name().into(),
            waste: escalating.waste_factor,
            worst_case_h: h,
            fraction_of_worst: escalating.waste_factor / h,
        });

        let adversarial = sim::Sim::new(params).manager(kind).run().expect("P_F runs");
        rows.push(GapRow {
            workload: "adversary-pf".into(),
            manager: kind.name().into(),
            waste: adversarial.execution.waste_factor,
            worst_case_h: h,
            fraction_of_worst: adversarial.execution.waste_factor / h,
        });
    }

    print!("{}", to_csv(&rows));

    let typical_max = rows
        .iter()
        .filter(|r| r.workload == "churn-typical" || r.workload == "ramp-benign")
        .map(|r| r.waste)
        .fold(0.0f64, f64::max);
    let adversarial_min = rows
        .iter()
        .filter(|r| r.workload == "adversary-pf")
        .map(|r| r.waste)
        .fold(f64::INFINITY, f64::min);
    eprintln!(
        "worst-case h = {h:.3}; typical workloads peak at {typical_max:.3}, \
         the semi-adversarial escalating ramp sits in between, and P_F \
         never drops below {adversarial_min:.3}"
    );
}
