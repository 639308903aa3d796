//! The data series behind every figure in the paper's evaluation.
//!
//! The paper's figures are analytic (they plot the bound formulas, not
//! measurements); these functions regenerate the exact series at the
//! paper's parameters, fanning the grid points across threads via
//! [`parallel::par_map`] (results stay in sweep order). `pcb figure N`
//! prints them as CSV through [`to_csv`].

use pcb_json::{Json, ToJson};

use crate::bounds::{bp11, robson, thm1, thm2};
use crate::parallel;
use crate::params::Params;
use crate::sim::{Adversary, Sim, SimError};
use pcb_alloc::ManagerKind;
use pcb_heap::TimeSeries;

/// Renders rows as a CSV table: the header is the first row's field
/// names, alphabetical ([`Json`] objects keep their keys sorted); strings
/// print bare and nulls as empty cells.
///
/// # Panics
///
/// Panics if a row does not serialize to a JSON object.
pub fn to_csv<T: ToJson>(rows: &[T]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let Json::Object(obj) = row.to_json() else {
            panic!("rows serialize to objects");
        };
        if i == 0 {
            out.push_str(&obj.keys().map(String::as_str).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        let cells: Vec<String> = obj
            .values()
            .map(|v| match v {
                Json::Str(s) => s.clone(),
                Json::Null => String::new(),
                other => other.to_string(),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// One point of Figure 1: the lower-bound waste factor vs. `c`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// Compaction bound.
    pub c: u64,
    /// Theorem 1's waste factor `h` (ρ optimized), clamped at 1.
    pub h: f64,
    /// The optimizing density exponent `ρ`.
    pub rho: u32,
    /// The \[4\] lower bound at the same parameters (clamped at 1).
    pub bp11: f64,
}

/// Figure 1: lower bound on the waste factor for `M = 256 MB`,
/// `n = 1 MB` (words: `2^28`, `2^20`), `c = 10..=100`.
pub fn figure1() -> Vec<Fig1Row> {
    let _span = pcb_metrics::span!("figures.figure1");
    let cs: Vec<u64> = (10..=100).collect();
    parallel::par_map(&cs, |&c| {
        let p = Params::paper_example(c);
        let (rho, _) = thm1::optimal(p).expect("feasible at paper parameters");
        Fig1Row {
            c,
            h: thm1::factor(p),
            rho,
            bp11: bp11::lower_factor(p),
        }
    })
}

impl ToJson for Fig1Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("c", Json::from(self.c)),
            ("h", Json::from(self.h)),
            ("rho", Json::from(self.rho)),
            ("bp11", Json::from(self.bp11)),
        ])
    }
}

/// One point of Figure 2: the lower-bound waste factor vs. `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// `log₂ n` (n in words; the paper sweeps 1 KB to 1 GB).
    pub log_n: u32,
    /// Live bound `M = 256·n`.
    pub m: u64,
    /// Theorem 1's waste factor, clamped at 1.
    pub h: f64,
    /// The optimizing `ρ`.
    pub rho: u32,
}

/// Figure 2: lower bound on the waste factor as a function of `n`
/// (`c = 100`, `M = 256·n`, `n = 2^10 ..= 2^30`).
pub fn figure2() -> Vec<Fig2Row> {
    let _span = pcb_metrics::span!("figures.figure2");
    let log_ns: Vec<u32> = (10..=30).collect();
    parallel::par_map(&log_ns, |&log_n| {
        let p = Params::new(256u64 << log_n, log_n, 100).expect("valid sweep point");
        let (rho, _) = thm1::optimal(p).expect("feasible across the sweep");
        Fig2Row {
            log_n,
            m: p.m(),
            h: thm1::factor(p),
            rho,
        }
    })
}

impl ToJson for Fig2Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("log_n", Json::from(self.log_n)),
            ("m", Json::from(self.m)),
            ("h", Json::from(self.h)),
            ("rho", Json::from(self.rho)),
        ])
    }
}

/// One point of Figure 3: upper-bound waste factors vs. `c`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Compaction bound.
    pub c: u64,
    /// Theorem 2's waste factor (`None` below its `c > ½ log n` threshold).
    pub thm2: Option<f64>,
    /// The `(c+1)` factor of \[4\].
    pub bp11_upper: f64,
    /// Robson's doubled factor (compaction-free, arbitrary sizes).
    pub robson_doubled: f64,
    /// The prior best: `min(bp11_upper, robson_doubled)`.
    pub prior_best: f64,
}

/// Figure 3: upper bound on the waste factor for the Figure-1 parameters,
/// `c = 10..=100`.
pub fn figure3() -> Vec<Fig3Row> {
    let _span = pcb_metrics::span!("figures.figure3");
    let cs: Vec<u64> = (10..=100).collect();
    parallel::par_map(&cs, |&c| {
        let p = Params::paper_example(c);
        Fig3Row {
            c,
            thm2: thm2::factor(p),
            bp11_upper: bp11::upper_factor(p),
            robson_doubled: robson::factor_arbitrary(p),
            prior_best: thm2::prior_best_factor(p),
        }
    })
}

impl ToJson for Fig3Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("c", Json::from(self.c)),
            ("thm2", self.thm2.map_or(Json::Null, Json::from)),
            ("bp11_upper", Json::from(self.bp11_upper)),
            ("robson_doubled", Json::from(self.robson_doubled)),
            ("prior_best", Json::from(self.prior_best)),
        ])
    }
}

/// The per-round profile of one adversarial run — the empirical companion
/// to the analytic figures. Where Figures 1–3 plot the *endpoint* bound,
/// this returns the whole trajectory (live words, span, hole structure,
/// budget allowance per round) so the build-up the proof describes can be
/// plotted directly; `to_csv`/`to_json` on the result are plot-ready.
///
/// # Errors
///
/// Propagates [`SimError`] from the underlying run.
pub fn round_profile(
    params: Params,
    adversary: Adversary,
    manager: ManagerKind,
    every: u32,
) -> Result<TimeSeries, SimError> {
    let report = Sim::new(params)
        .adversary(adversary)
        .manager(manager)
        .series(every)
        .run()?;
    Ok(report
        .series
        .expect("series requested, so the report carries one"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape() {
        let rows = figure1();
        assert_eq!(rows.len(), 91);
        // Monotone non-decreasing in c; \[4\] flat at the trivial 1.
        for pair in rows.windows(2) {
            assert!(pair[1].h >= pair[0].h - 1e-9, "h dips at c={}", pair[1].c);
        }
        assert!(rows.iter().all(|r| r.bp11 == 1.0));
        // The paper's three quoted points.
        let at = |c: u64| rows.iter().find(|r| r.c == c).unwrap().h;
        assert!((at(10) - 2.0).abs() < 0.05);
        assert!((at(50) - 3.15).abs() < 0.05);
        assert!((at(100) - 3.5).abs() < 0.06);
    }

    #[test]
    fn figure2_shape() {
        let rows = figure2();
        assert_eq!(rows.len(), 21);
        for pair in rows.windows(2) {
            assert!(
                pair[1].h >= pair[0].h - 1e-9,
                "h dips at log n = {}",
                pair[1].log_n
            );
        }
        // Small n: modest bound; large n: beyond 4x (the paper's Figure 2
        // spans roughly 2.5..4+ over 1KB..1GB).
        assert!(rows.first().unwrap().h < 3.0);
        assert!(rows.last().unwrap().h > 4.0);
    }

    #[test]
    fn round_profile_traces_the_buildup() {
        let p = Params::new(1 << 12, 8, 20).unwrap();
        let series = round_profile(p, Adversary::PF, ManagerKind::FirstFit, 1).unwrap();
        assert!(!series.is_empty());
        // The adversary's whole point: the span ends far above the live
        // data it retains.
        let last = series.len() - 1;
        assert!(series.span()[last] > series.live_words()[last]);
        // CSV is plot-ready: header + one line per sample.
        assert_eq!(series.to_csv().lines().count(), series.len() + 1);
    }

    #[test]
    fn figure3_shape() {
        let rows = figure3();
        assert_eq!(rows.len(), 91);
        for r in &rows {
            assert_eq!(
                r.prior_best,
                r.bp11_upper.min(r.robson_doubled),
                "c={}",
                r.c
            );
            if r.c >= 20 {
                let t = r.thm2.expect("applies for c >= 11");
                assert!(t < r.prior_best, "c={}: no improvement", r.c);
            }
        }
    }
}
