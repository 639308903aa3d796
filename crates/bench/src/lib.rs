//! Shared plumbing for the benchmark harness: the experiment
//! configurations behind the `empirical`, `ablation` and `gap` binaries
//! (which print them through [`figures::to_csv`](partial_compaction::figures::to_csv)).

use partial_compaction::{parallel, sim, ManagerKind, Params, PfVariant};
use pcb_json::{Json, ToJson};

/// The scaled-down parameter grid used by the empirical experiments
/// (E5/E6 in DESIGN.md). The paper's figures are analytic; these runs
/// validate the theory executable-side at laptop scale.
pub fn empirical_grid() -> Vec<Params> {
    let mut grid = Vec::new();
    for (m_shift, log_n) in [(14u32, 10u32), (16, 10), (18, 12)] {
        for c in [10u64, 20, 50, 100] {
            grid.push(Params::new(1 << m_shift, log_n, c).expect("valid grid point"));
        }
    }
    grid
}

/// One row of the empirical experiment output.
#[derive(Debug, Clone)]
pub struct EmpiricalRow {
    /// Live bound in words.
    pub m: u64,
    /// `log₂ n`.
    pub log_n: u32,
    /// Compaction bound.
    pub c: u64,
    /// Manager under test.
    pub manager: String,
    /// Theorem 1's bound `h`.
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
            ("manager", Json::from(self.manager.as_str())),
            ("h", Json::from(self.h)),
            ("waste", Json::from(self.waste)),
            ("ratio", Json::from(self.ratio)),
            ("moved", Json::from(self.moved)),
        ])
    }
}

/// Runs `P_F` against every manager across the grid, fanning the
/// independent program×manager runs across threads (rows come back in
/// grid order regardless of thread count).
pub fn run_empirical(validate: bool) -> Vec<EmpiricalRow> {
    let cells: Vec<(Params, ManagerKind)> = empirical_grid()
        .into_iter()
        .flat_map(|params| ManagerKind::ALL.into_iter().map(move |kind| (params, kind)))
        .collect();
    parallel::par_map(&cells, |&(params, kind)| {
        let report = sim::Sim::new(params)
            .adversary(sim::Adversary::PF)
            .manager(kind)
            .validate(validate)
            .run()
            .expect("grid points are feasible and managers serve P_F");
        assert!(
            report.violations.is_empty(),
            "{kind}: {:?}",
            report.violations
        );
        EmpiricalRow {
            m: params.m(),
            log_n: params.log_n(),
            c: params.c(),
            manager: kind.name().to_owned(),
            h: report.h,
            waste: report.execution.waste_factor,
            ratio: report.waste_over_bound,
            moved: report.execution.moved_fraction,
        }
    })
}

/// Runs Robson's `P_R` against the non-moving managers (experiment E6),
/// one grid cell per thread.
pub fn run_robson_empirical() -> Vec<EmpiricalRow> {
    let mut cells: Vec<(Params, ManagerKind)> = Vec::new();
    for (m_shift, log_n) in [(12u32, 6u32), (14, 8)] {
        let params = Params::new(1 << m_shift, log_n, 10).expect("valid");
        for kind in ManagerKind::NON_MOVING {
            cells.push((params, kind));
        }
    }
    parallel::par_map(&cells, |&(params, kind)| {
        let report = sim::Sim::new(params)
            .adversary(sim::Adversary::Robson)
            .manager(kind)
            .run()
            .expect("P_R runs against non-moving managers");
        EmpiricalRow {
            m: params.m(),
            log_n: params.log_n(),
            c: 0,
            manager: kind.name().to_owned(),
            h: report.h,
            waste: report.execution.waste_factor,
            ratio: report.waste_over_bound,
            moved: report.execution.moved_fraction,
        }
    })
}

/// One row of the ablation experiment (E7): the §3.1 improvements
/// individually toggled.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Compaction bound.
    pub c: u64,
    /// Manager under test.
    pub manager: String,
    /// Human name of the variant.
    pub variant: String,
    /// Measured `HS / M`.
    pub waste: f64,
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("c", Json::from(self.c)),
            ("manager", Json::from(self.manager.as_str())),
            ("variant", Json::from(self.variant.as_str())),
            ("waste", Json::from(self.waste)),
        ])
    }
}

/// The named variants of the ablation: full, each improvement off in
/// isolation, and the all-off baseline.
pub fn ablation_variants() -> Vec<(&'static str, PfVariant)> {
    vec![
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
    ]
}

/// Runs the ablation grid, one c×manager×variant cell per thread.
pub fn run_ablation() -> Vec<AblationRow> {
    let mut cells: Vec<(Params, ManagerKind, &'static str, PfVariant)> = Vec::new();
    for c in [10u64, 20, 50] {
        let params = Params::new(1 << 16, 10, c).expect("valid");
        for kind in [
            ManagerKind::FirstFit,
            ManagerKind::CompactingBp11,
            ManagerKind::PagesThm2,
        ] {
            for (name, variant) in ablation_variants() {
                cells.push((params, kind, name, variant));
            }
        }
    }
    parallel::par_map(&cells, |&(params, kind, name, variant)| {
        let report = sim::Sim::new(params)
            .adversary(sim::Adversary::Pf(variant))
            .manager(kind)
            .run()
            .expect("ablation points run");
        AblationRow {
            c: params.c(),
            manager: kind.name().to_owned(),
            variant: name.to_owned(),
            waste: report.execution.waste_factor,
        }
    })
}

/// One row of the geometry ablation: the Theorem-2-style manager's
/// objects-per-page knob (DESIGN.md calls out the factor-4 chunk
/// geometry) swept under `P_F`.
#[derive(Debug, Clone)]
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

/// Sweeps the page geometry of the Theorem-2-style manager under `P_F`.
pub fn run_geometry_ablation() -> Vec<GeometryRow> {
    use partial_compaction::heap::{Execution, Heap};
    use partial_compaction::{alloc::PageManager, PfConfig, PfProgram};
    let (m, log_n) = (1u64 << 16, 10u32);
    let mut rows = Vec::new();
    for c in [10u64, 50] {
        for slots in [4usize, 8, 16] {
            let cfg = PfConfig::new(m, log_n, c).expect("feasible");
            let mut exec = Execution::new(
                Heap::new(c),
                PfProgram::new(cfg),
                PageManager::with_geometry(c, log_n, slots),
            );
            let report = exec.run().expect("geometry point runs");
            rows.push(GeometryRow {
                c,
                slots,
                waste: report.waste_factor,
                moved: report.moved_fraction,
            });
        }
    }
    rows
}

/// Minimal wall-clock bench driver for the `benches/` targets (the
/// repository carries no external bench harness).
pub mod harness {
    use std::hint::black_box;
    use std::time::Instant;

    /// Runs `f` once for warmup, then `iters` timed iterations, and
    /// prints the mean wall-clock per iteration.
    pub fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
        assert!(iters > 0);
        black_box(f());
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let mean = start.elapsed() / iters;
        println!("{name}: {mean:?}/iter over {iters} iters");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_feasible() {
        for p in empirical_grid() {
            assert!(
                partial_compaction::adversary::optimal_rho(p.m(), p.log_n(), p.c()).is_some(),
                "{p} must be feasible"
            );
        }
    }

    #[test]
    fn ablation_variants_cover_the_space() {
        let names: Vec<_> = ablation_variants().iter().map(|(n, _)| *n).collect();
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
}
