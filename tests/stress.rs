//! Heavy stress tests, ignored by default:
//!
//! ```text
//! cargo test --release -- --ignored
//! ```

use partial_compaction::{bounds, sim, ManagerKind, Params};

/// The full E5 grid at one larger scale: every manager, certified
/// against the bound, with validation on.
#[test]
#[ignore = "heavy: ~1 minute in release mode"]
fn large_scale_lower_bound_certification() {
    let params = Params::new(1 << 18, 12, 50).expect("valid");
    for kind in ManagerKind::ALL {
        let report = sim::Sim::new(params)
            .manager(kind)
            .validate(true)
            .run()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(
            report.waste_over_bound >= 0.97,
            "{kind}: ratio {}",
            report.waste_over_bound
        );
        assert!(report.violations.is_empty(), "{kind}");
    }
}

/// Long random churn against every manager: millions of operations, all
/// placements verified by the ground truth.
#[test]
#[ignore = "heavy: ~1 minute in release mode"]
fn long_churn_against_every_manager() {
    use partial_compaction::heap::{Execution, Heap};
    use partial_compaction::workload::{ChurnConfig, ChurnWorkload};
    let mut cfg = ChurnConfig::typical(1 << 14, 8);
    cfg.rounds = 2000;
    cfg.allocs_per_round = 128;
    for kind in ManagerKind::WITH_BASELINE {
        let heap = Heap::with_c(kind.heap_c(false, 10));
        let mut exec = Execution::new(
            heap,
            ChurnWorkload::new(cfg),
            kind.build(&Params::new(cfg.m, cfg.log_n, 10).expect("valid")),
        );
        let report = exec.run_summary().unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(report.objects_placed > 100_000, "{kind}");
        assert!(report.peak_live <= cfg.m, "{kind}");
    }
}

/// Exhaustive search at the largest still-tractable toy scale.
#[test]
#[ignore = "heavy: large state space"]
fn exhaustive_search_at_larger_toy_scale() {
    use partial_compaction::exhaustive::{worst_case, SearchPolicy};
    let params = Params::new(12, 2, 10).expect("valid");
    let bound = bounds::robson::bound_p2(params);
    let wc = worst_case(params, SearchPolicy::FirstFit, 50_000_000);
    assert!(
        wc.heap_size as f64 >= bound.floor(),
        "true worst {} < Robson {bound}",
        wc.heap_size
    );
}
