//! One row function per figure and experiment of DESIGN.md §3.
//!
//! Figures 1–3 plot the bound formulas at the paper's exact parameters.
//! Experiments 5, 6, 7 and 9 run the adversaries and realistic workloads
//! against the manager suite at laptop scale; each row function takes
//! its parameter grid. All of them fan out via [`parallel::par_map`]
//! (rows stay in grid order). `pcb figure <id>` prints [`render`]'s CSV,
//! and `pcb reproduce` checks the executable claims from the same rows.

use core::fmt;

use pcb_adversary::{PfConfig, PfProgram, PfVariant};
use pcb_alloc::{ManagerKind, PageManager};
use pcb_heap::{Execution, Heap, Program};
use pcb_json::{Json, ToJson};
use pcb_workload::{ChurnConfig, ChurnWorkload, RampConfig, RampWorkload};

use crate::bounds::{bp11, robson, thm1, thm2};
use crate::parallel;
use crate::params::Params;
use crate::sim::{Adversary, Sim, SimError};

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

/// The CSV `pcb figure <id>` prints (ids as in DESIGN.md §3): Figures
/// 1–3, and experiments 5, 6, 7 and 9 at their regeneration grids.
/// Experiment 7 is the ablation table, a blank line, then the geometry
/// table.
///
/// # Errors
///
/// An unknown id, or the first failed run of an experiment.
pub fn render(id: &str) -> Result<String, FigureError> {
    Ok(match id {
        "1" => to_csv(&figure1()),
        "2" => to_csv(&figure2()),
        "3" => to_csv(&figure3()),
        "5" => to_csv(&empirical(&empirical_grid())?),
        "6" => to_csv(&robson_empirical(&grid(&[(12, 6), (14, 8)], &[10]))?),
        "7" => {
            let variants = ablation(&grid(&[(16, 10)], &[10, 20, 50]))?;
            let geometries = geometry(&grid(&[(16, 10)], &[10, 50]))?;
            format!("{}\n{}", to_csv(&variants), to_csv(&geometries))
        }
        "9" => to_csv(&gap(grid(&[(14, 8)], &[20])[0], &GAP_MANAGERS)?),
        _ => return Err(FigureError::UnknownId(id.to_owned())),
    })
}

/// Experiment 5's grid.
fn empirical_grid() -> Vec<Params> {
    grid(&[(14, 10), (16, 10), (18, 12)], &[10, 20, 50, 100])
}

/// Every `(log₂ M, log₂ n)` shape at every `c`, shapes outermost.
fn grid(shapes: &[(u32, u32)], cs: &[u64]) -> Vec<Params> {
    cross(shapes, cs)
        .into_iter()
        .map(|((m_shift, log_n), c)| Params::new(1 << m_shift, log_n, c))
        .collect::<Result<_, _>>()
        .expect("valid grid points")
}

/// Every `(a, b)` pair, `outer` outermost.
fn cross<A: Copy, B: Copy>(outer: &[A], inner: &[B]) -> Vec<(A, B)> {
    outer
        .iter()
        .flat_map(|&a| inner.iter().map(move |&b| (a, b)))
        .collect()
}

/// Why an experiment's table could not be produced.
#[derive(Debug)]
pub enum FigureError {
    /// [`render`] has no table under this id.
    UnknownId(String),
    /// A run failed.
    Run(SimError),
    /// A validated `P_F` run recorded analysis violations (which run,
    /// and what its invariant checks found).
    Violations(String),
}

impl fmt::Display for FigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FigureError::UnknownId(id) => {
                write!(f, "no figure {id}: the ids are 1, 2, 3, 5, 6, 7 and 9")
            }
            FigureError::Run(e) => write!(f, "{e}"),
            FigureError::Violations(what) => write!(f, "analysis violations: {what}"),
        }
    }
}

impl std::error::Error for FigureError {}

impl From<SimError> for FigureError {
    fn from(e: SimError) -> Self {
        FigureError::Run(e)
    }
}

/// Runs `f` on every cell in parallel; rows in cell order, or the first
/// error in cell order.
fn rows<C: Sync, R: Send>(
    cells: &[C],
    f: impl Fn(&C) -> Result<R, FigureError> + Sync,
) -> Result<Vec<R>, FigureError> {
    parallel::par_map(cells, f).into_iter().collect()
}

/// One adversary-vs-manager run of experiment 5 or 6.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalRow {
    /// Live bound in words.
    pub m: u64,
    /// `log₂ n`.
    pub log_n: u32,
    /// Compaction bound (0 in experiment 6: `P_R` never compacts).
    pub c: u64,
    /// Manager under test.
    pub manager: ManagerKind,
    /// The bound: Theorem 1's `h` (E5) or Robson's factor (E6).
    pub h: f64,
    /// Measured `HS / M`.
    pub waste: f64,
    /// `waste / h` (≥ 1 certifies the bound for this manager).
    pub ratio: f64,
    /// Fraction of allocated words moved.
    pub moved: f64,
}

impl ToJson for EmpiricalRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("m", Json::from(self.m)),
            ("log_n", Json::from(self.log_n)),
            ("c", Json::from(self.c)),
            ("manager", Json::from(self.manager.name())),
            ("h", Json::from(self.h)),
            ("waste", Json::from(self.waste)),
            ("ratio", Json::from(self.ratio)),
            ("moved", Json::from(self.moved)),
        ])
    }
}

/// Experiment 5: `P_F` against every manager at each grid point, with
/// the analysis invariants checked; rows in grid × [`ManagerKind::ALL`]
/// order.
///
/// # Errors
///
/// The first failed run, or the first run with analysis violations.
pub fn empirical(grid: &[Params]) -> Result<Vec<EmpiricalRow>, FigureError> {
    let _span = pcb_metrics::span!("figures.empirical");
    adversary_rows(grid, Adversary::PF, &ManagerKind::ALL)
}

/// Experiment 6: Robson's `P_R` against every non-moving manager at each
/// grid point; rows in grid × [`ManagerKind::NON_MOVING`] order.
///
/// # Errors
///
/// The first failed run.
pub fn robson_empirical(grid: &[Params]) -> Result<Vec<EmpiricalRow>, FigureError> {
    let _span = pcb_metrics::span!("figures.robson_empirical");
    adversary_rows(grid, Adversary::Robson, &ManagerKind::NON_MOVING)
}

/// `adversary` against each manager at each grid point, validated (only
/// `P_F` has invariant checks to run).
fn adversary_rows(
    grid: &[Params],
    adversary: Adversary,
    managers: &[ManagerKind],
) -> Result<Vec<EmpiricalRow>, FigureError> {
    rows(&cross(grid, managers), |&(params, manager)| {
        let sim = Sim::new(params).adversary(adversary).manager(manager);
        let report = sim.validate(true).run()?;
        if !report.violations.is_empty() {
            let found = report.violations.join("; ");
            return Err(FigureError::Violations(format!(
                "{manager} at {params}: {found}"
            )));
        }
        let c = if adversary == Adversary::Robson {
            0
        } else {
            params.c()
        };
        Ok(EmpiricalRow {
            m: params.m(),
            log_n: params.log_n(),
            c,
            manager,
            h: report.h,
            waste: report.execution.waste_factor,
            ratio: report.waste_over_bound,
            moved: report.execution.moved_fraction,
        })
    })
}

/// The `P_F` variants experiment 7 compares: the full program, each §3.1
/// improvement off alone, and the all-off POPL'11-style baseline.
pub const ABLATION_VARIANTS: [(&str, PfVariant); 5] = [
    ("full", PfVariant::FULL),
    (
        "no-robson-stage1",
        PfVariant {
            robson_stage1: false,
            ..PfVariant::FULL
        },
    ),
    (
        "no-regimented",
        PfVariant {
            regimented_alloc: false,
            ..PfVariant::FULL
        },
    ),
    (
        "no-halves",
        PfVariant {
            half_assignment: false,
            ..PfVariant::FULL
        },
    ),
    ("baseline", PfVariant::BASELINE),
];

/// One cell of experiment 7's ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Compaction bound.
    pub c: u64,
    /// Manager under test.
    pub manager: ManagerKind,
    /// The variant's name in [`ABLATION_VARIANTS`].
    pub variant: &'static str,
    /// Measured `HS / M`.
    pub waste: f64,
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("c", Json::from(self.c)),
            ("manager", Json::from(self.manager.name())),
            ("variant", Json::from(self.variant)),
            ("waste", Json::from(self.waste)),
        ])
    }
}

/// Experiment 7: every [`ABLATION_VARIANTS`] entry against first-fit,
/// `compacting-bp11` and `pages-thm2` at each grid point, in grid ×
/// manager × variant order. The improvements strengthen the *provable*
/// bound; against one concrete manager the ordering can differ, so the
/// table is descriptive.
///
/// # Errors
///
/// The first failed run.
pub fn ablation(grid: &[Params]) -> Result<Vec<AblationRow>, FigureError> {
    let _span = pcb_metrics::span!("figures.ablation");
    let managers = [
        ManagerKind::FirstFit,
        ManagerKind::CompactingBp11,
        ManagerKind::PagesThm2,
    ];
    let cells = cross(&cross(grid, &managers), &ABLATION_VARIANTS);
    rows(&cells, |&((params, manager), (variant, pf))| {
        let report = Sim::new(params)
            .adversary(Adversary::Pf(pf))
            .manager(manager)
            .run()?;
        let waste = report.execution.waste_factor;
        Ok(AblationRow {
            c: params.c(),
            manager,
            variant,
            waste,
        })
    })
}

/// One cell of experiment 7's page-geometry sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryRow {
    /// Compaction bound.
    pub c: u64,
    /// Objects per page.
    pub slots: usize,
    /// Measured `HS / M`.
    pub waste: f64,
    /// Fraction of allocated words moved.
    pub moved: f64,
}

impl ToJson for GeometryRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("c", Json::from(self.c)),
            ("slots", Json::from(self.slots)),
            ("waste", Json::from(self.waste)),
            ("moved", Json::from(self.moved)),
        ])
    }
}

/// Experiment 7's second table: `P_F` against the Theorem-2-style page
/// manager at 4, 8 and 16 objects per page (the paper's §4 analysis uses
/// 4), in grid × geometry order.
///
/// # Errors
///
/// The first failed run.
pub fn geometry(grid: &[Params]) -> Result<Vec<GeometryRow>, FigureError> {
    let _span = pcb_metrics::span!("figures.geometry");
    rows(&cross(grid, &[4, 8, 16]), |&(params, slots)| {
        let (log_n, c) = (params.log_n(), params.c());
        let cfg = PfConfig::new(params.m(), log_n, c).map_err(SimError::Infeasible)?;
        let manager = PageManager::try_with_geometry(c, log_n, slots)
            .map_err(|e| SimError::Infeasible(e.to_string()))?;
        let mut exec = Execution::new(Heap::new(c), PfProgram::new(cfg), manager);
        let summary = exec.run_summary().map_err(SimError::Execution)?;
        let (waste, moved) = (summary.waste_factor, summary.moved_fraction);
        Ok(GeometryRow {
            c,
            slots,
            waste,
            moved,
        })
    })
}

/// The managers experiment 9 compares.
const GAP_MANAGERS: [ManagerKind; 5] = [
    ManagerKind::FirstFit,
    ManagerKind::BestFit,
    ManagerKind::Buddy,
    ManagerKind::CompactingBp11,
    ManagerKind::PagesThm2,
];

/// Experiment 9's programs by row name: steady churn, a benign phased
/// ramp, a ramp escalating toward the adversarial regime, and `P_F`.
const GAP_PROGRAMS: [&str; 4] = [
    "churn-typical",
    "ramp-benign",
    "ramp-escalating",
    "adversary-pf",
];

/// The measured `HS / M` of one of [`GAP_PROGRAMS`] against `kind`. The
/// workloads run on the heap the manager gets when the program needs no
/// compaction budget.
fn gap_waste(p: Params, kind: ManagerKind, program: &str) -> Result<f64, SimError> {
    let (m, log_n) = (p.m(), p.log_n());
    let program: Box<dyn Program> = match program {
        "churn-typical" => Box::new(ChurnWorkload::new(ChurnConfig::typical(m, log_n))),
        "ramp-benign" => Box::new(RampWorkload::new(RampConfig::benign(m, log_n))),
        "ramp-escalating" => Box::new(RampWorkload::new(RampConfig::escalating(m, log_n))),
        _ => return Ok(Sim::new(p).manager(kind).run()?.execution.waste_factor),
    };
    let heap = Heap::with_c(kind.heap_c(false, p.c()));
    let manager = kind.try_build(&p).map_err(SimError::Manager)?;
    let mut exec = Execution::new(heap, program, manager);
    Ok(exec
        .run_summary()
        .map_err(SimError::Execution)?
        .waste_factor)
}

/// One cell of experiment 9, the benchmark-vs-worst-case gap.
#[derive(Debug, Clone, PartialEq)]
pub struct GapRow {
    /// The program's name.
    pub workload: &'static str,
    /// Manager under test.
    pub manager: ManagerKind,
    /// Measured `HS / M`.
    pub waste: f64,
    /// Theorem 1's `h` at the grid point.
    pub worst_case_h: f64,
    /// `waste / worst_case_h`.
    pub fraction_of_worst: f64,
}

impl ToJson for GapRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("workload", Json::from(self.workload)),
            ("manager", Json::from(self.manager.name())),
            ("waste", Json::from(self.waste)),
            ("worst_case_h", Json::from(self.worst_case_h)),
            ("fraction_of_worst", Json::from(self.fraction_of_worst)),
        ])
    }
}

/// Experiment 9, §1's "worst-case only" remark: realistic workloads and
/// `P_F` against each manager at one grid point, beside Theorem 1's `h`;
/// rows in manager × program order.
///
/// # Errors
///
/// The first failed run.
pub fn gap(params: Params, managers: &[ManagerKind]) -> Result<Vec<GapRow>, FigureError> {
    let _span = pcb_metrics::span!("figures.gap");
    let h = thm1::factor(params);
    rows(&cross(managers, &GAP_PROGRAMS), |&(manager, workload)| {
        let waste = gap_waste(params, manager, workload)?;
        let fraction_of_worst = waste / h;
        Ok(GapRow {
            workload,
            manager,
            waste,
            worst_case_h: h,
            fraction_of_worst,
        })
    })
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
    fn grid_is_feasible() {
        for p in empirical_grid() {
            assert!(thm1::optimal(p).is_some(), "{p} must be feasible");
        }
    }

    #[test]
    fn ablation_variants_cover_the_space() {
        let names: Vec<_> = ABLATION_VARIANTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "full",
                "no-robson-stage1",
                "no-regimented",
                "no-halves",
                "baseline"
            ]
        );
    }

    #[test]
    fn failed_runs_are_errors_not_panics() {
        // c = 2 admits no feasible ρ for P_F.
        let infeasible = Params::new(1 << 12, 8, 2).unwrap();
        assert!(matches!(
            empirical(&[infeasible]),
            Err(FigureError::Run(SimError::Infeasible(_)))
        ));
        assert!(matches!(
            geometry(&[infeasible]),
            Err(FigureError::Run(SimError::Infeasible(_)))
        ));
        let err = render("4").unwrap_err();
        assert!(matches!(err, FigureError::UnknownId(_)));
        assert!(err.to_string().contains("1, 2, 3, 5, 6, 7 and 9"), "{err}");
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
