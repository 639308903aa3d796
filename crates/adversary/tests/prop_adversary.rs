//! Property-based tests for the adversaries and their analysis machinery.

use proptest::prelude::*;

use pcb_adversary::{is_f_occupying, optimal_rho, waste_factor, Association, PfConfig, PfProgram};
use pcb_alloc::ManagerKind;
use pcb_heap::{Addr, Execution, Heap, ObjectId, Size};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn occupancy_agrees_with_brute_force(
        addr in 0u64..512,
        size in 1u64..64,
        i in 0u32..7,
        f_raw in 0u64..128,
    ) {
        let chunk = 1u64 << i;
        let f = f_raw % chunk;
        let brute = (addr..addr + size).any(|w| w % chunk == f);
        prop_assert_eq!(
            is_f_occupying(Addr::new(addr), Size::new(size), f, i),
            brute
        );
    }

    #[test]
    fn waste_factor_is_sane(
        log_m_extra in 6u32..12,
        log_n in 6u32..16,
        c in 3u64..200,
    ) {
        let m = 1u64 << (log_n + log_m_extra);
        if let Some((rho, h)) = optimal_rho(m, log_n, c) {
            prop_assert!(h.is_finite());
            // The bound can never beat full compaction's factor 1... it can
            // be below 1 for extreme parameters where the formula is weak,
            // but must never be absurd.
            prop_assert!(h > 0.0 && h < 64.0, "h = {h}");
            prop_assert!(pcb_adversary::rho_feasible(log_n, c, rho));
            // h is the max over feasible rho.
            for r in 1..12 {
                if let Some(h2) = waste_factor(m, log_n, c, r) {
                    prop_assert!(h2 <= h + 1e-12);
                }
            }
        }
    }

    #[test]
    fn association_invariants_under_random_ops(
        seed_objects in proptest::collection::vec((0u64..32, 1u64..16), 1..24),
        steps in 1u32..4,
    ) {
        let mut a = Association::new(5, 2);
        for (i, &(chunk, words)) in seed_objects.iter().enumerate() {
            a.associate_whole(chunk, ObjectId::from_raw(i as u64), words, true);
        }
        a.check_invariants().map_err(TestCaseError::fail)?;
        let mut last_u = a.u_sum();
        for _ in 0..steps {
            let (freed, _) = a.shed_density_surplus();
            a.check_invariants().map_err(TestCaseError::fail)?;
            // Claim 4.16(1): shedding never decreases u. Objects are shed
            // only from chunks that stay at or above the saturation
            // density, so their u_D is unchanged; half reassignment can
            // only add mass to the partner chunk.
            prop_assert!(a.u_sum() >= last_u);
            for id in freed {
                prop_assert!(!a.is_associated(id));
            }
            last_u = a.u_sum();
            a.advance_step();
            a.check_invariants().map_err(TestCaseError::fail)?;
            // Claim 4.16(1) for step changes: merging chunks never
            // decreases u.
            prop_assert!(a.u_sum() >= last_u);
            last_u = a.u_sum();
        }
    }

    #[test]
    fn pf_defeats_managers_at_random_scales(
        log_n in 8u32..11,
        m_factor in 4u32..8,
        c in prop_oneof![Just(10u64), Just(20), Just(40)],
        kind_pick in 0usize..10,
    ) {
        let m = 1u64 << (log_n + m_factor);
        let kind = ManagerKind::ALL[kind_pick];
        let Ok(cfg) = PfConfig::new(m, log_n, c) else {
            return Ok(()); // infeasible corner, nothing to test
        };
        let cfg = cfg.with_validation();
        let h = cfg.h;
        let mut exec = Execution::new(
            Heap::new(c),
            PfProgram::new(cfg),
            kind.build(&pcb_heap::Params::new(m, log_n, c).expect("valid")),
        );
        let report = exec.run_summary().map_err(|e| TestCaseError::fail(format!("{kind}: {e}")))?;
        prop_assert!(
            report.waste_factor >= h * 0.9,
            "{kind} c={c} m={m} log_n={log_n}: waste {} < h {h}",
            report.waste_factor
        );
        prop_assert!(exec.program().violations().is_empty(),
            "{:?}", exec.program().violations());
        if let Some(u) = exec.program().potential() {
            prop_assert!(u <= report.heap_size as i128);
        }
    }
}
