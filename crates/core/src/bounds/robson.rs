//! Robson's classic no-compaction bounds (JACM 1971, 1974), quoted in
//! Section 2.2 of the paper.
//!
//! For programs in `P2(M, n)` (power-of-two sizes) and managers that never
//! move objects, Robson proved matching bounds:
//!
//! ```text
//! min_A HS(A, P_o)      = M·(½·log₂ n + 1) − n + 1   (lower, bad program P_o)
//! max_P HS(A_o, P)      = M·(½·log₂ n + 1) − n + 1   (upper, allocator A_o)
//! ```
//!
//! For arbitrary sizes one rounds up to powers of two, at most doubling
//! live space: the upper bound becomes `2·(M·(½·log₂ n + 1) − n + 1)`.
//!
//! The formula itself lives in [`pcb_adversary`], beside the program
//! `P_R` that realizes it.

use crate::params::Params;

/// Robson's exact bound `M·(½·log₂ n + 1) − n + 1` for `P2(M, n)` without
/// compaction (both the lower and the matching upper bound).
pub fn bound_p2(params: Params) -> f64 {
    pcb_adversary::RobsonProgram::robson_lower_bound(params.m(), params.log_n())
}

/// The doubled upper bound for arbitrary-size programs in `P(M, n)`
/// (round every request up to a power of two).
pub fn upper_bound_arbitrary(params: Params) -> f64 {
    2.0 * bound_p2(params)
}

/// [`bound_p2`] as a waste factor (multiple of `M`).
pub fn factor_p2(params: Params) -> f64 {
    bound_p2(params) / params.m() as f64
}

/// [`upper_bound_arbitrary`] as a waste factor.
pub fn factor_arbitrary(params: Params) -> f64 {
    upper_bound_arbitrary(params) / params.m() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_value() {
        // M = 2^28, n = 2^20: factor = 0.5*20 + 1 − (n−1)/M ≈ 11.
        let p = Params::paper_example(10);
        let f = factor_p2(p);
        assert!((f - 11.0).abs() < 0.01, "factor = {f}");
        assert!((factor_arbitrary(p) - 22.0).abs() < 0.02);
    }

    #[test]
    fn fixed_size_programs_need_only_m() {
        // log n = 0 is rejected by Params, but log n = 1 gives 1.5M − 1:
        // even two sizes already force fragmentation.
        let p = Params::new(1 << 10, 1, 10).unwrap();
        let f = bound_p2(p);
        assert!((f - (1.5 * 1024.0 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn bound_grows_with_n() {
        let f1 = factor_p2(Params::new(1 << 20, 8, 10).unwrap());
        let f2 = factor_p2(Params::new(1 << 20, 12, 10).unwrap());
        assert!(f2 > f1);
    }
}
