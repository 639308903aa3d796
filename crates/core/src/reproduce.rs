//! One-call reproduction: re-derive every checkable claim of the paper
//! and report pass/fail with the numbers side by side.
//!
//! `pcb reproduce` prints this table; CI asserts it stays green. Each
//! check is small enough to run in seconds (the analytic claims are
//! instant; the executable ones run at laptop scale).

use crate::bounds::{bp11, robson, thm1, thm2};
use crate::exhaustive::{self, SearchPolicy};
use crate::parallel;
use crate::params::Params;
use crate::sim;
use pcb_alloc::ManagerKind;

/// One reproduced claim.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short id (experiment or paper locus).
    pub id: String,
    /// What the paper says.
    pub claim: String,
    /// What this repository measures.
    pub measured: String,
    /// Whether the measurement supports the claim.
    pub pass: bool,
}

impl pcb_json::ToJson for Check {
    fn to_json(&self) -> pcb_json::Json {
        use pcb_json::Json;
        Json::object([
            ("id", Json::from(self.id.as_str())),
            ("claim", Json::from(self.claim.as_str())),
            ("measured", Json::from(self.measured.as_str())),
            ("pass", Json::from(self.pass)),
        ])
    }
}

impl Check {
    fn new(id: &str, claim: &str, measured: String, pass: bool) -> Self {
        Check {
            id: id.to_owned(),
            claim: claim.to_owned(),
            measured,
            pass,
        }
    }
}

/// Runs every check. Analytic checks use the paper's exact parameters;
/// executable checks run at `M = 2^14..2^15` words.
pub fn all_checks() -> Vec<Check> {
    let _span = pcb_metrics::span!("reproduce.all_checks");
    let mut checks = Vec::new();

    // ---- E1/E4: Theorem 1 at the paper's parameters. ----
    for (c, expect, tol) in [(10u64, 2.0, 0.05), (50, 3.15, 0.05), (100, 3.5, 0.06)] {
        let h = thm1::factor(Params::paper_example(c));
        checks.push(Check::new(
            &format!("fig1/c={c}"),
            &format!("waste factor ≈ {expect}x at c = {c} (M = 256 MB, n = 1 MB)"),
            format!("h = {h:.3}"),
            (h - expect).abs() < tol,
        ));
    }
    {
        let p = Params::paper_example(100);
        let mb = thm1::lower_bound(p) / (1 << 20) as f64;
        checks.push(Check::new(
            "s1/896MB",
            "a heap of size 896 MB must be used (c = 100)",
            format!("{mb:.0} MB"),
            (mb - 896.0).abs() < 16.0,
        ));
    }

    // ---- E1: prior lower bound trivial across Figure 1. ----
    {
        let trivial = (10..=100).all(|c| bp11::lower_factor(Params::paper_example(c)) == 1.0);
        checks.push(Check::new(
            "fig1/bp11",
            "[4] gives nothing but the trivial factor 1 for c in 10..100",
            format!("trivial everywhere: {trivial}"),
            trivial,
        ));
    }

    // ---- E2: Figure 2 monotone growth. ----
    {
        let rows = crate::figures::figure2();
        let monotone = rows.windows(2).all(|w| w[1].h >= w[0].h - 1e-9);
        checks.push(Check::new(
            "fig2",
            "lower bound grows with the max object size n (c = 100, M = 256n)",
            format!(
                "h: {:.2} (1KB) -> {:.2} (1GB), monotone: {monotone}",
                rows.first().unwrap().h,
                rows.last().unwrap().h
            ),
            monotone,
        ));
    }

    // ---- E3: Theorem 2 improvement range. ----
    {
        let improved = (20..=100).all(|c| {
            let p = Params::paper_example(c);
            thm2::factor(p).is_some_and(|t| t < thm2::prior_best_factor(p))
        });
        checks.push(Check::new(
            "fig3",
            "Theorem 2 improves on min((c+1)M, Robson-doubled) for c in 20..100",
            format!("improves everywhere: {improved}"),
            improved,
        ));
    }

    // ---- §2.2: Robson's bound value. ----
    {
        let p = Params::paper_example(10);
        let f = robson::factor_p2(p);
        checks.push(Check::new(
            "s2.2/robson",
            "Robson: M(log n/2 + 1) − n + 1 ≈ 11x at n = 1 MB",
            format!("{f:.3}x"),
            (f - 11.0).abs() < 0.01,
        ));
    }

    // ---- E5: the executable lower bound, all managers. ----
    {
        let params = Params::new(1 << 14, 10, 20).expect("valid");
        let h = thm1::factor(params);
        // The per-manager runs are independent; fan them across threads
        // and reduce in manager order so the summary is deterministic.
        let reports = parallel::par_map(&ManagerKind::ALL, |&kind| {
            sim::Sim::new(params)
                .adversary(sim::Adversary::PF)
                .manager(kind)
                .validate(true)
                .run()
                .expect("managers serve P_F")
        });
        let mut worst: (f64, &str) = (f64::INFINITY, "");
        let mut all_ok = true;
        for (kind, report) in ManagerKind::ALL.iter().zip(&reports) {
            let ratio = report.execution.waste_factor / h;
            if ratio < worst.0 {
                worst = (ratio, kind.name());
            }
            all_ok &= ratio >= 0.95 && report.violations.is_empty();
        }
        checks.push(Check::new(
            "E5",
            "P_F forces HS ≥ M·h on every c-partial manager (10 managers, c = 20)",
            format!("worst ratio {:.3} ({})", worst.0, worst.1),
            all_ok,
        ));
    }

    // ---- E6: Robson's adversary vs non-moving managers. ----
    {
        let params = Params::new(1 << 12, 6, 10).expect("valid");
        let mut all_ok = true;
        let mut worst = f64::INFINITY;
        for report in parallel::par_map(&ManagerKind::NON_MOVING, |&kind| {
            sim::Sim::new(params)
                .adversary(sim::Adversary::Robson)
                .manager(kind)
                .run()
                .expect("P_R runs")
        }) {
            worst = worst.min(report.waste_over_bound);
            all_ok &= report.waste_over_bound >= 1.0;
        }
        checks.push(Check::new(
            "E6",
            "P_R forces HS ≥ M(log n/2 + 1) − n + 1 on every non-moving manager",
            format!("worst ratio {worst:.3}"),
            all_ok,
        ));
    }

    // ---- E10: full compaction achieves factor ~1. ----
    {
        let params = Params::new(1 << 14, 10, 20).expect("valid");
        let report = sim::Sim::new(params)
            .manager(ManagerKind::FullCompaction)
            .run()
            .expect("full compactor runs");
        let ok = report.execution.waste_factor <= 1.05 && report.execution.moved_fraction > 0.05;
        checks.push(Check::new(
            "E10",
            "with unlimited compaction the overhead factor would have been 1",
            format!(
                "waste {:.3} while moving {:.1}% of allocations",
                report.execution.waste_factor,
                report.execution.moved_fraction * 100.0
            ),
            ok,
        ));
    }

    // ---- E11: exhaustive toy-scale check. ----
    {
        let p = Params::new(6, 1, 10).expect("valid");
        let wc = exhaustive::worst_case(p, SearchPolicy::FirstFit, 1_000_000);
        let bound = robson::bound_p2(p);
        checks.push(Check::new(
            "E11",
            "the true worst case over ALL tiny programs is ≥ Robson's formula",
            format!("brute force {} vs formula {bound:.0}", wc.heap_size),
            wc.heap_size as f64 >= bound.floor(),
        ));
    }

    // ---- E6 exactness: the free-list policies attain Robson's bound. ----
    {
        let params = Params::new(1 << 12, 6, 10).expect("valid");
        let report = sim::Sim::new(params)
            .adversary(sim::Adversary::Robson)
            .manager(ManagerKind::FirstFit)
            .run()
            .expect("P_R runs");
        let exact = (report.waste_over_bound - 1.0).abs() < 1e-9;
        checks.push(Check::new(
            "E6/exact",
            "Robson's bound is tight: first-fit attains it exactly",
            format!("ratio {:.6}", report.waste_over_bound),
            exact,
        ));
    }

    // ---- E9: benchmarks sit well below the worst case. ----
    {
        use pcb_heap::{Execution, Heap};
        use pcb_workload::{ChurnConfig, ChurnWorkload};
        let (m, log_n, c) = (1u64 << 14, 8u32, 20u64);
        let params = Params::new(m, log_n, c).expect("valid");
        let h = thm1::factor(params);
        let cfg = ChurnConfig::typical(m, log_n);
        let mut exec = Execution::new(
            Heap::non_moving(),
            ChurnWorkload::new(cfg),
            ManagerKind::FirstFit.build(&params),
        );
        let churn = exec.run().expect("churn runs").waste_factor;
        let pf = sim::Sim::new(params)
            .manager(ManagerKind::FirstFit)
            .run()
            .expect("P_F runs")
            .execution
            .waste_factor;
        let ok = churn < 0.75 * h && pf >= h;
        checks.push(Check::new(
            "E9",
            "the bounds are worst-case: benchmarks do much better than P_F",
            format!("churn {churn:.2} < h {h:.2} <= P_F {pf:.2}"),
            ok,
        ));
    }

    // ---- E12: observability is free of observer effects. ----
    {
        let params = Params::new(1 << 13, 9, 20).expect("valid");
        let plain = sim::Sim::new(params)
            .manager(ManagerKind::FirstFit)
            .run()
            .expect("P_F runs");
        let watched = sim::Sim::new(params)
            .manager(ManagerKind::FirstFit)
            .series(1)
            .stats(true)
            .run()
            .expect("P_F runs observed");
        let series = watched.series.as_ref().expect("series collected");
        let peak = series.span().iter().copied().max().unwrap_or(0);
        let ok = plain.execution.heap_size == watched.execution.heap_size
            && plain.execution.words_placed == watched.execution.words_placed
            && peak == watched.execution.heap_size
            && series.len() == watched.execution.rounds as usize;
        checks.push(Check::new(
            "E12",
            "attaching per-round series + manager stats changes no result",
            format!(
                "HS {} = {} (peak of {} samples)",
                plain.execution.heap_size,
                watched.execution.heap_size,
                series.len()
            ),
            ok,
        ));
    }

    // ---- Consistency: lower never crosses upper. ----
    {
        let ok = (11..=100).all(|c| {
            let p = Params::paper_example(c);
            thm2::factor(p).is_none_or(|t| thm1::factor(p) <= t)
        });
        checks.push(Check::new(
            "sanity",
            "the lower bound never crosses the upper bound",
            format!("consistent: {ok}"),
            ok,
        ));
    }

    checks
}

/// Renders the checks as an aligned text table.
pub fn render_table(checks: &[Check]) -> String {
    let mut out = String::new();
    let id_w = checks.iter().map(|c| c.id.len()).max().unwrap_or(4).max(4);
    for check in checks {
        out.push_str(&format!(
            "{} {:id_w$}  {}\n{:id_w$}  {}  -> {}\n",
            if check.pass { "PASS" } else { "FAIL" },
            check.id,
            check.claim,
            "",
            " ".repeat(4),
            check.measured,
        ));
    }
    let passed = checks.iter().filter(|c| c.pass).count();
    out.push_str(&format!("\n{passed}/{} checks pass\n", checks.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reproduction_check_passes() {
        let checks = all_checks();
        assert!(checks.len() >= 10);
        for check in &checks {
            assert!(
                check.pass,
                "{}: {} -> {}",
                check.id, check.claim, check.measured
            );
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let checks = vec![
            Check::new("a", "claim", "measured".into(), true),
            Check::new("b", "other", "nope".into(), false),
        ];
        let table = render_table(&checks);
        assert!(table.contains("PASS a"));
        assert!(table.contains("FAIL b"));
        assert!(table.contains("1/2 checks pass"));
    }
}
