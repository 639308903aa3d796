//! End-to-end integration: the full pipeline (params → adversary →
//! manager → heap → report) across crates, at scales small enough for CI.

use partial_compaction::bounds::thm1::SCALED_SLACK;
use partial_compaction::{bounds, sim, ManagerKind, Params, PfVariant};

#[test]
fn pf_certifies_theorem_1_for_the_whole_suite() {
    let params = Params::new(1 << 15, 10, 25).expect("valid");
    let h = bounds::thm1::factor(params);
    assert!(h > 1.5, "the bound must be non-trivial for this test");
    for kind in ManagerKind::ALL {
        let report = sim::Sim::new(params)
            .manager(kind)
            .validate(true)
            .run()
            .expect("runs");
        assert!(
            report.execution.waste_factor >= h * SCALED_SLACK,
            "{kind}: {} < {h}",
            report.execution.waste_factor
        );
        assert!(report.violations.is_empty(), "{kind}");
        // The potential is a certified lower bound on the heap the
        // manager used.
        let u = report.final_potential.expect("stage II ran");
        assert!(u <= report.execution.heap_size as i128, "{kind}");
    }
}

#[test]
fn compacting_managers_stay_legal_and_both_bounds_sandwich_them() {
    let params = Params::new(1 << 15, 10, 20).expect("valid");
    let lower = bounds::thm1::factor(params);
    let upper = bounds::thm2::factor(params).expect("applies");
    for kind in ManagerKind::COMPACTING {
        let report = sim::Sim::new(params).manager(kind).run().expect("runs");
        assert!(report.execution.moved_fraction <= 0.05 + 1e-12, "{kind}");
        assert!(
            report.execution.waste_factor >= lower * SCALED_SLACK,
            "{kind} below the lower bound"
        );
        // Managers need not meet Theorem 2's bound (they are heuristics,
        // not its construction), but both our compactors should be within
        // an order of magnitude of it at this scale.
        assert!(
            report.execution.waste_factor <= upper * 2.0,
            "{kind}: {} way above the upper bound {upper}",
            report.execution.waste_factor
        );
    }
}

#[test]
fn all_pf_variants_run_against_all_managers() {
    let params = Params::new(1 << 13, 9, 15).expect("valid");
    for kind in ManagerKind::ALL {
        for variant in [PfVariant::FULL, PfVariant::BASELINE] {
            let report = sim::Sim::new(params)
                .adversary(sim::Adversary::Pf(variant))
                .manager(kind)
                .run()
                .expect("runs");
            assert!(report.execution.peak_live <= params.m(), "{kind}");
            assert!(report.execution.waste_factor >= 1.0, "{kind}");
        }
    }
}

#[test]
fn robson_certifies_his_bound_for_non_moving_managers() {
    let params = Params::new(1 << 12, 6, 10).expect("valid");
    for kind in ManagerKind::NON_MOVING {
        let report = sim::Sim::new(params)
            .adversary(sim::Adversary::Robson)
            .manager(kind)
            .run()
            .expect("runs");
        assert!(
            report.waste_over_bound >= 1.0,
            "{kind}: ratio {}",
            report.waste_over_bound
        );
    }
}

#[test]
fn theory_scales_with_m_but_simulation_ratio_stays_stable() {
    // The waste factor h depends on (n, c) and only weakly on M (via
    // 2n/M); the measured ratio should stay near or above 1 across M.
    for m_shift in [13u32, 14, 15] {
        let params = Params::new(1 << m_shift, 9, 20).expect("valid");
        let report = sim::Sim::new(params)
            .manager(ManagerKind::FirstFit)
            .run()
            .expect("runs");
        assert!(
            report.waste_over_bound >= SCALED_SLACK,
            "M=2^{m_shift}: {}",
            report.waste_over_bound
        );
    }
}
