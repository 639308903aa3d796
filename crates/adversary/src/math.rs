//! The waste-factor formula of Theorem 1 and the derived allocation
//! fraction `x` used by Algorithm 1 (program `P_F`).
//!
//! For a density exponent `ρ` (the program maintains per-chunk density
//! `2^-ρ`), Theorem 1 states that every c-partial manager serving `P_F`
//! needs heap at least `M · h(ρ; M, n, c)` with
//!
//! ```text
//!       (ρ+2)/2 − (2^ρ/c)·S₁ + β·L/(ρ+1) − 2n/M
//! h = ─────────────────────────────────────────────
//!            1 + 2^{−ρ}·β·L/(ρ+1)
//!
//! S₁ = ρ + 1 − ½·Σ_{i=1..ρ} i/(2^i − 1)      (Lemma 4.5's s₁/M bound)
//! β  = 3/4 − 2^ρ/c                            (Claim 4.16's growth rate)
//! L  = log₂(n) − 2ρ − 1                       (number of stage-II steps)
//! ```
//!
//! valid for integer `ρ` with `1 ≤ ρ ≤ log₂(3c/4)` (so that the chunk
//! density `2^-ρ` stays above `1/c` — evacuating a dense-enough chunk
//! never pays for the manager) and `2ρ ≤ log₂(n) − 2` (so stage II has at
//! least one step).
//!
//! The formula was recovered from the paper symbol-by-symbol and validated
//! against the values the paper itself quotes for `M = 2^28`, `n = 2^20`:
//! `h ≈ 2.0` at `c = 10`, `≈ 3.15` at `c = 50`, `≈ 3.5` at `c = 100`
//! (see the tests below and EXPERIMENTS.md).

/// `S₁ = ρ + 1 − ½·Σ_{i=1..ρ} i/(2^i − 1)`: the Lemma 4.5 bound on the
/// fraction `s₁/M` of words allocated during stage I.
pub fn stage1_alloc_fraction(rho: u32) -> f64 {
    let sum: f64 = (1..=rho).map(|i| i as f64 / ((1u64 << i) - 1) as f64).sum();
    rho as f64 + 1.0 - 0.5 * sum
}

/// Whether `(rho, c, log_n)` satisfies Theorem 1's side conditions.
pub fn rho_feasible(log_n: u32, c: u64, rho: u32) -> bool {
    rho >= 1
        && (1u128 << rho) * 4 <= 3 * c as u128 // 2^ρ ≤ 3c/4
        && 2 * rho + 2 <= log_n // stage II is non-empty
}

/// The waste factor `h(ρ; M, n, c)` of Theorem 1 for a specific `ρ`.
///
/// Returns `None` when `ρ` is infeasible (see [`rho_feasible`]).
///
/// ```
/// use pcb_adversary::waste_factor;
/// // The paper's example at c = 100, rho = 3: about 3.49.
/// let h = waste_factor(1 << 28, 20, 100, 3).unwrap();
/// assert!((h - 3.49).abs() < 0.01);
/// assert_eq!(waste_factor(1 << 28, 20, 100, 7), None); // 2^7 > 3c/4
/// ```
///
/// # Panics
///
/// Panics if `m == 0`, `log_n == 0`, or `c < 2`.
pub fn waste_factor(m: u64, log_n: u32, c: u64, rho: u32) -> Option<f64> {
    assert!(m > 0, "live bound M must be positive");
    assert!(log_n > 0, "n must exceed the unit object size");
    assert!(c >= 2, "compaction bound c must be at least 2");
    if !rho_feasible(log_n, c, rho) {
        return None;
    }
    let n = (1u128 << log_n) as f64;
    let two_rho = (1u128 << rho) as f64;
    let beta = 0.75 - two_rho / c as f64;
    let l = log_n as f64 - 2.0 * rho as f64 - 1.0;
    let per_step = beta * l / (rho as f64 + 1.0);
    let num = (rho as f64 + 2.0) / 2.0 - (two_rho / c as f64) * stage1_alloc_fraction(rho)
        + per_step
        - 2.0 * n / m as f64;
    let den = 1.0 + per_step / two_rho;
    Some(num / den)
}

/// The fraction of Theorem 1's `h` a measured `P_F` run must reach to
/// count as meeting the bound: a run passes when `HS / M ≥ SCALED_SLACK · h`.
/// `pcb reproduce` and the tests that hold `P_F` runs to `h` all use it.
///
/// `h` is derived for real-valued allocation fractions, while a run
/// allocates whole objects in a heap scaled down from the paper's
/// `M = 2^28` words (to `M = 2^13..2^18` in the tests and experiments), so
/// integer rounding can leave a run a few percent short of `h`. Measured
/// margins: across experiment 5's grid (120 runs, every manager) the
/// worst `waste / h` is 1.018 (`pages-thm2`, `c = 20`, `M = 2^16`), so
/// those runs clear `h` itself. Off the grid, `pages-thm2` at `c = 15`,
/// `M = 2^16` measures 0.949 (EXPERIMENTS.md, E5 fidelity note), just
/// under this slack, so the slack holds at the pinned points only.
pub const SCALED_SLACK: f64 = 0.95;

/// The best feasible `(ρ, h)` for the given parameters: Theorem 1's bound
/// is `max` over feasible `ρ`, and only a handful of integer values are
/// ever feasible, so exhaustive search is exact.
///
/// Returns `None` if no `ρ` is feasible (e.g. tiny `n` or `c < 3`).
///
/// ```
/// use pcb_adversary::optimal_rho;
/// let (rho, h) = optimal_rho(1 << 28, 20, 10).unwrap();
/// assert_eq!(rho, 2);
/// assert!((h - 2.0).abs() < 0.05); // the paper's "2x at 10%"
/// ```
pub fn optimal_rho(m: u64, log_n: u32, c: u64) -> Option<(u32, f64)> {
    (1..=log_n)
        .filter_map(|rho| waste_factor(m, log_n, c, rho).map(|h| (rho, h)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

type RhoMemo = std::collections::HashMap<(u64, u32, u64), Option<(u32, f64)>>;

std::thread_local! {
    /// Per-thread memo for [`optimal_rho`]: fleet shards instantiate
    /// thousands of tenants that share a handful of `(M, log n, c)`
    /// shapes, so each shard computes every distinct feasibility search
    /// once. Thread-local (rather than a shared lock) keeps shard
    /// execution contention-free and the cache drops with the thread.
    static RHO_MEMO: std::cell::RefCell<RhoMemo> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Memoized [`optimal_rho`]: identical result (the search is a pure
/// function of its arguments), cached per thread under the `(m, log_n, c)`
/// key. Use on hot paths that build many [`PfConfig`](crate::PfConfig)s
/// with repeated parameter shapes.
pub fn optimal_rho_memo(m: u64, log_n: u32, c: u64) -> Option<(u32, f64)> {
    RHO_MEMO.with(|memo| {
        *memo
            .borrow_mut()
            .entry((m, log_n, c))
            .or_insert_with(|| optimal_rho(m, log_n, c))
    })
}

/// The stage-II allocation fraction `x = (1 − 2^{−ρ}·h)/(ρ+1)` computed at
/// the top of Algorithm 1 (clamped at 0: a non-positive `x` means the
/// theorem's bound already exceeds what stage II could add).
pub fn stage2_alloc_fraction(h: f64, rho: u32) -> f64 {
    let x = (1.0 - h / (1u64 << rho) as f64) / (rho as f64 + 1.0);
    x.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's realistic parameters: M = 256 MB, n = 1 MB (in words:
    /// 2^28 and 2^20).
    const M: u64 = 1 << 28;
    const LOG_N: u32 = 20;

    #[test]
    fn stage1_fraction_small_cases() {
        assert!((stage1_alloc_fraction(1) - 1.5).abs() < 1e-12); // 2 - 1/2
                                                                 // rho=2: 3 - 0.5*(1 + 2/3)
        assert!((stage1_alloc_fraction(2) - (3.0 - 0.5 * (1.0 + 2.0 / 3.0))).abs() < 1e-12);
    }

    #[test]
    fn feasibility_boundaries() {
        // 2^ρ ≤ 3c/4: c=10 -> 2^ρ ≤ 7.5 -> ρ ≤ 2.
        assert!(rho_feasible(LOG_N, 10, 2));
        assert!(!rho_feasible(LOG_N, 10, 3));
        // c=100 -> 2^ρ ≤ 75 -> ρ ≤ 6.
        assert!(rho_feasible(LOG_N, 100, 6));
        assert!(!rho_feasible(LOG_N, 100, 7));
        // Stage II: 2ρ + 2 ≤ log n.
        assert!(rho_feasible(10, 100, 4));
        assert!(!rho_feasible(9, 100, 4));
        // ρ ≥ 1.
        assert!(!rho_feasible(LOG_N, 100, 0));
    }

    #[test]
    fn reproduces_the_papers_quoted_values() {
        // Section 1: "2x ... when 10% of the allocated space can be
        // compacted" (c = 10).
        let (_, h10) = optimal_rho(M, LOG_N, 10).unwrap();
        assert!((h10 - 2.0).abs() < 0.05, "c=10: h = {h10}");
        // Section 2.3: "when compaction of 2% of all allocated space is
        // allowed (c = 50) ... at least 3.15 · M".
        let (_, h50) = optimal_rho(M, LOG_N, 50).unwrap();
        assert!((h50 - 3.15).abs() < 0.05, "c=50: h = {h50}");
        // Section 1: "when the compaction is limited to 1% ... 3.5x"
        // (c = 100).
        let (_, h100) = optimal_rho(M, LOG_N, 100).unwrap();
        assert!((h100 - 3.5).abs() < 0.06, "c=100: h = {h100}");
    }

    #[test]
    fn optimal_rho_beats_every_fixed_rho() {
        for c in [10u64, 20, 50, 100] {
            let (best_rho, best_h) = optimal_rho(M, LOG_N, c).unwrap();
            assert!(rho_feasible(LOG_N, c, best_rho));
            for rho in 1..=8 {
                if let Some(h) = waste_factor(M, LOG_N, c, rho) {
                    assert!(h <= best_h + 1e-12, "c={c} rho={rho}");
                }
            }
        }
    }

    #[test]
    fn bound_grows_with_c() {
        // Less compaction allowed (larger c) means more waste is forced.
        let hs: Vec<f64> = [10u64, 20, 40, 80]
            .iter()
            .map(|&c| optimal_rho(M, LOG_N, c).unwrap().1)
            .collect();
        for pair in hs.windows(2) {
            assert!(pair[0] < pair[1], "h must increase with c: {hs:?}");
        }
    }

    #[test]
    fn bound_grows_with_n() {
        // Figure 2's shape: larger max object size forces more waste
        // (c = 100, M = 256 n).
        let hs: Vec<f64> = [12u32, 16, 20, 24, 28]
            .iter()
            .map(|&log_n| optimal_rho(256u64 << log_n, log_n, 100).unwrap().1)
            .collect();
        for pair in hs.windows(2) {
            assert!(pair[0] < pair[1], "h must increase with n: {hs:?}");
        }
    }

    #[test]
    fn memoized_rho_matches_direct() {
        for c in [10u64, 50, 100] {
            assert_eq!(optimal_rho_memo(M, LOG_N, c), optimal_rho(M, LOG_N, c));
            // Second call hits the cache and must agree.
            assert_eq!(optimal_rho_memo(M, LOG_N, c), optimal_rho(M, LOG_N, c));
        }
        assert_eq!(optimal_rho_memo(M, 3, 100), None);
    }

    #[test]
    fn infeasible_parameters_yield_none() {
        assert_eq!(waste_factor(M, LOG_N, 10, 3), None);
        assert_eq!(waste_factor(M, 4, 100, 3), None);
        assert!(optimal_rho(M, 3, 100).is_none());
    }

    #[test]
    fn stage2_fraction_clamps() {
        assert_eq!(stage2_alloc_fraction(10.0, 1), 0.0);
        let x = stage2_alloc_fraction(2.0, 3);
        assert!((x - (1.0 - 0.25) / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "compaction bound")]
    fn tiny_c_panics() {
        let _ = waste_factor(M, LOG_N, 1, 1);
    }
}
