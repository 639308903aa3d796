//! Theorem 1 — the paper's main result: the lower bound `HS ≥ M·h`
//! against every c-partial manager.
//!
//! The formula itself lives in [`pcb_adversary`] (Algorithm 1 computes its
//! allocation fraction `x` from `h`, so the adversary crate owns the
//! math); this module adapts it to [`Params`] and adds the `ρ`-optimized
//! bound the figures plot.

use crate::params::Params;

pub use pcb_adversary::{rho_feasible, stage1_alloc_fraction, stage2_alloc_fraction, SCALED_SLACK};

/// The waste factor `h(ρ; M, n, c)` for a specific density exponent `ρ`;
/// `None` when `ρ` is infeasible.
pub fn factor_for_rho(params: Params, rho: u32) -> Option<f64> {
    pcb_adversary::waste_factor(params.m(), params.log_n(), params.c(), rho)
}

/// Theorem 1's bound: the best `(ρ, h)` over all feasible `ρ`, or `None`
/// if no `ρ` is feasible for these parameters.
pub fn optimal(params: Params) -> Option<(u32, f64)> {
    pcb_adversary::optimal_rho(params.m(), params.log_n(), params.c())
}

/// The lower-bound waste factor, clamped at the trivial 1 (a heap smaller
/// than the live space can never work). This is what Figure 1 plots.
pub fn factor(params: Params) -> f64 {
    optimal(params).map_or(1.0, |(_, h)| h.max(1.0))
}

/// The lower bound in words: `M · factor`.
pub fn lower_bound(params: Params) -> f64 {
    factor(params) * params.m() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_values_from_the_paper() {
        assert!((factor(Params::paper_example(10)) - 2.0).abs() < 0.05);
        assert!((factor(Params::paper_example(50)) - 3.15).abs() < 0.05);
        assert!((factor(Params::paper_example(100)) - 3.5).abs() < 0.06);
    }

    #[test]
    fn always_at_least_trivial() {
        for c in [2u64, 3, 5, 1000] {
            let p = Params::new(1 << 16, 8, c).unwrap();
            assert!(factor(p) >= 1.0, "c={c}");
        }
    }

    #[test]
    fn beats_bp11_everywhere_in_figure_1_range() {
        use crate::bounds::bp11;
        for c in (10..=100).step_by(5) {
            let p = Params::paper_example(c);
            assert!(
                factor(p) > bp11::lower_factor(p),
                "c={c}: new bound must beat [4]"
            );
        }
    }

    #[test]
    fn consistent_with_robson_in_the_no_compaction_limit() {
        // As c grows, the c-partial bound approaches but must never exceed
        // Robson's no-compaction bound (compaction can only help the
        // manager; the c-partial adversary is weaker than Robson's full
        // freedom... in fact Robson's bound dominates).
        use crate::bounds::robson;
        for c in [100u64, 1000, 100_000] {
            let p = Params::paper_example(c);
            assert!(
                factor(p) <= robson::factor_p2(p),
                "c={c}: h must stay below Robson's matching bound"
            );
        }
    }
}
