//! Parameter sweeps: evaluate any bound over ranges of `c`, `n`, or `ρ`
//! and get plot-ready series.
//!
//! The figure generators in [`figures`](crate::figures) are fixed to the
//! paper's exact parameters; sweeps are the general tool behind them and
//! behind the sensitivity experiments (how does the bound react to each
//! knob?).

use crate::bounds::{bp11, robson, thm1, thm2};
use crate::parallel;
use crate::params::Params;

/// A labelled series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// What the series shows (e.g. `"thm1"`).
    pub label: String,
    /// The points, in sweep order; `y = NaN` is never produced — points
    /// where a bound does not apply are omitted.
    pub points: Vec<(f64, f64)>,
}

impl pcb_json::ToJson for Series {
    fn to_json(&self) -> pcb_json::Json {
        use pcb_json::Json;
        Json::object([
            ("label", Json::from(self.label.as_str())),
            (
                "points",
                Json::array(
                    self.points
                        .iter()
                        .map(|&(x, y)| Json::array([Json::from(x), Json::from(y)])),
                ),
            ),
        ])
    }
}

impl Series {
    /// Evaluates `eval` at every grid point in parallel (input order is
    /// preserved, so the result is identical to a sequential sweep) and
    /// keeps the points where the bound applies.
    fn collect_par<X: Copy + Sync, F>(label: &str, xs: Vec<X>, eval: F) -> Series
    where
        F: Fn(X) -> (f64, Option<f64>) + Sync,
    {
        let _span = pcb_metrics::span!("sweep.collect");
        Series {
            label: label.to_owned(),
            points: parallel::par_map(&xs, |&x| eval(x))
                .into_iter()
                .filter_map(|(x, y)| y.map(|y| (x, y)))
                .collect(),
        }
    }

    /// The y-value at the given x, if present.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// Whether the series is monotone non-decreasing in x.
    pub fn is_non_decreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9)
    }
}

/// Every bound the repository knows how to evaluate, sweepable uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Theorem 1 lower bound (ρ-optimized, clamped at 1).
    Thm1Lower,
    /// Theorem 2 upper bound (absent below its `c` threshold).
    Thm2Upper,
    /// Robson's exact `P2` bound.
    RobsonP2,
    /// Robson's doubled bound for arbitrary sizes.
    RobsonDoubled,
    /// `(c+1)` of POPL'11.
    Bp11Upper,
    /// POPL'11 lower bound (clamped at 1).
    Bp11Lower,
}

impl Bound {
    /// All bounds, in a stable order.
    pub const ALL: [Bound; 6] = [
        Bound::Thm1Lower,
        Bound::Thm2Upper,
        Bound::RobsonP2,
        Bound::RobsonDoubled,
        Bound::Bp11Upper,
        Bound::Bp11Lower,
    ];

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Bound::Thm1Lower => "thm1-lower",
            Bound::Thm2Upper => "thm2-upper",
            Bound::RobsonP2 => "robson-p2",
            Bound::RobsonDoubled => "robson-doubled",
            Bound::Bp11Upper => "bp11-upper",
            Bound::Bp11Lower => "bp11-lower",
        }
    }

    /// Evaluates the bound as a waste factor, if it applies.
    pub fn factor(self, params: Params) -> Option<f64> {
        match self {
            Bound::Thm1Lower => Some(thm1::factor(params)),
            Bound::Thm2Upper => thm2::factor(params),
            Bound::RobsonP2 => Some(robson::factor_p2(params)),
            Bound::RobsonDoubled => Some(robson::factor_arbitrary(params)),
            Bound::Bp11Upper => Some(bp11::upper_factor(params)),
            Bound::Bp11Lower => Some(bp11::lower_factor(params)),
        }
    }
}

/// Sweeps a bound over `c` with `M, n` fixed.
///
/// ```
/// use partial_compaction::sweep::{over_c, Bound};
/// let s = over_c(Bound::Thm1Lower, 1 << 28, 20, 10..=100);
/// assert_eq!(s.points.len(), 91);
/// assert!(s.is_non_decreasing());
/// ```
pub fn over_c(bound: Bound, m: u64, log_n: u32, cs: impl Iterator<Item = u64>) -> Series {
    Series::collect_par(bound.label(), cs.collect(), |c| {
        let y = Params::new(m, log_n, c).ok().and_then(|p| bound.factor(p));
        (c as f64, y)
    })
}

/// Sweeps a bound over `log₂ n` with `c` fixed and `M = ratio·n`.
///
/// ```
/// use partial_compaction::sweep::{over_n, Bound};
/// let s = over_n(Bound::Thm1Lower, 256, 100, 10..=30);
/// assert!(s.at(20.0).unwrap() > 3.0); // the Figure-1 anchor
/// ```
pub fn over_n(bound: Bound, m_over_n: u64, c: u64, log_ns: impl Iterator<Item = u32>) -> Series {
    Series::collect_par(bound.label(), log_ns.collect(), |log_n| {
        let y = n_params(m_over_n, log_n, c)
            .ok()
            .and_then(|p| bound.factor(p));
        (log_n as f64, y)
    })
}

/// The parameters of one [`over_n`] point: `M = m_over_n · 2^log_n`.
///
/// # Errors
///
/// The [`Params::new`] error; a `log_n` past the shift width fails as
/// out of range rather than overflowing the shift.
pub fn n_params(m_over_n: u64, log_n: u32, c: u64) -> Result<Params, crate::ParamsError> {
    Params::new(m_over_n.checked_shl(log_n).unwrap_or(0), log_n, c)
}

/// Sweeps Theorem 1 over the density exponent `ρ` at fixed parameters —
/// the sensitivity of the paper's central design choice. Points where `ρ`
/// is infeasible are omitted.
///
/// ```
/// use partial_compaction::{sweep::over_rho, Params};
/// let s = over_rho(Params::paper_example(100), 1..=8);
/// // Only a handful of integral rho are feasible, as the paper remarks.
/// assert!(s.points.len() <= 6);
/// ```
pub fn over_rho(params: Params, rhos: impl Iterator<Item = u32>) -> Series {
    Series::collect_par("thm1-by-rho", rhos.collect(), |rho| {
        (rho as f64, thm1::factor_for_rho(params, rho))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_sweep_matches_figure_1() {
        let s = over_c(Bound::Thm1Lower, 1 << 28, 20, 10..=100);
        assert_eq!(s.points.len(), 91);
        assert!(s.is_non_decreasing());
        assert!((s.at(50.0).unwrap() - 3.18).abs() < 0.01);
        // Figure series agree with the sweep.
        for row in crate::figures::figure1() {
            assert!((s.at(row.c as f64).unwrap() - row.h).abs() < 1e-12);
        }
    }

    #[test]
    fn n_sweep_matches_figure_2() {
        let s = over_n(Bound::Thm1Lower, 256, 100, 10..=30);
        assert_eq!(s.points.len(), 21);
        assert!(s.is_non_decreasing());
        for row in crate::figures::figure2() {
            assert!((s.at(row.log_n as f64).unwrap() - row.h).abs() < 1e-12);
        }
    }

    #[test]
    fn inapplicable_points_are_omitted() {
        // Thm2 needs c > log(n)/2 = 10 at log n = 20.
        let s = over_c(Bound::Thm2Upper, 1 << 28, 20, 8..=12);
        let xs: Vec<f64> = s.points.iter().map(|&(x, _)| x).collect();
        assert_eq!(xs, vec![11.0, 12.0]);
    }

    #[test]
    fn rho_sweep_is_unimodal_at_paper_parameters() {
        // h(ρ) rises to the optimum then falls — the practical "very few
        // relevant integral ρ" remark of the theorem.
        let p = Params::paper_example(100);
        let s = over_rho(p, 1..=8);
        assert!(!s.points.is_empty());
        let max = s
            .points
            .iter()
            .map(|&(_, y)| y)
            .fold(f64::NEG_INFINITY, f64::max);
        let (best_rho, _) = crate::bounds::thm1::optimal(p).unwrap();
        assert!((s.at(best_rho as f64).unwrap() - max).abs() < 1e-12);
        // Rises before the peak, falls after.
        let peak_idx = s
            .points
            .iter()
            .position(|&(x, _)| x == best_rho as f64)
            .unwrap();
        for w in s.points[..=peak_idx].windows(2) {
            assert!(w[1].1 >= w[0].1, "not rising before the peak: {s:?}");
        }
        for w in s.points[peak_idx..].windows(2) {
            assert!(w[1].1 <= w[0].1, "not falling after the peak: {s:?}");
        }
    }

    #[test]
    fn every_bound_evaluates_where_it_applies() {
        let p = Params::paper_example(50);
        for bound in Bound::ALL {
            let f = bound.factor(p).expect("all bounds apply at c=50");
            assert!(f >= 1.0, "{}: {f}", bound.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = Bound::ALL.iter().map(|b| b.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Bound::ALL.len());
    }
}
