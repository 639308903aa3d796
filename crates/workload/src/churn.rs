//! Steady-state churn: the bread-and-butter profile of a managed heap.
//!
//! Each round frees enough objects (by a configurable lifetime model) to
//! make room, then allocates a batch drawn from a [`SizeDist`]. Live
//! space hovers around a target fraction of `M`. Nothing here is
//! adversarial — which is the point: the measured waste of real managers
//! under churn sits far below the paper's worst-case `h` (experiment E9).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pcb_heap::{Addr, MoveResponse, ObjectId, Program, Size};

use crate::dist::SizeDist;

/// Which objects die first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lifetime {
    /// Any live object is equally likely to die.
    Uniform,
    /// Weak generational hypothesis: with probability `bias` the victim
    /// is drawn from the youngest quartile of live objects.
    DieYoung {
        /// Probability of sampling from the youngest quartile.
        bias: f64,
    },
}

/// Configuration for [`ChurnWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Live-space bound `M` in words.
    pub m: u64,
    /// `log₂` of the maximum object size.
    pub log_n: u32,
    /// Object-size distribution.
    pub dist: SizeDist,
    /// Fraction of `M` to hover at (0, 1].
    pub target_live: f64,
    /// Number of rounds.
    pub rounds: u32,
    /// Allocation attempts per round.
    pub allocs_per_round: usize,
    /// Lifetime model for frees.
    pub lifetime: Lifetime,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl ChurnConfig {
    /// A representative default: geometric sizes, 90% occupancy,
    /// die-young lifetimes.
    pub fn typical(m: u64, log_n: u32) -> Self {
        ChurnConfig {
            m,
            log_n,
            dist: SizeDist::Geometric(0.25),
            target_live: 0.9,
            rounds: 200,
            allocs_per_round: 64,
            lifetime: Lifetime::DieYoung { bias: 0.8 },
            seed: 0x5EED,
        }
    }
}

/// A non-adversarial churning mutator.
#[derive(Debug)]
pub struct ChurnWorkload {
    cfg: ChurnConfig,
    sampler: crate::dist::SizeSampler,
    rng: StdRng,
    round: u32,
    /// Live objects in allocation order (youngest last).
    live: Vec<(ObjectId, Size)>,
    live_words: u64,
    /// Sizes planned for the current round (decided in `frees`, so the
    /// free phase can make room for exactly this batch).
    planned: Vec<Size>,
}

impl ChurnWorkload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (`target_live` outside (0, 1],
    /// `m` smaller than the largest object).
    pub fn new(cfg: ChurnConfig) -> Self {
        assert!(cfg.target_live > 0.0 && cfg.target_live <= 1.0);
        assert!(cfg.m >= 1 << cfg.log_n, "M must hold the largest object");
        ChurnWorkload {
            rng: StdRng::seed_from_u64(cfg.seed),
            sampler: cfg.dist.sampler(cfg.log_n),
            cfg,
            round: 0,
            live: Vec::new(),
            live_words: 0,
            planned: Vec::new(),
        }
    }

    /// Live words according to the workload's own accounting.
    pub fn live_words(&self) -> u64 {
        self.live_words
    }

    fn pick_victim(&mut self) -> usize {
        match self.cfg.lifetime {
            Lifetime::Uniform => self.rng.gen_range(0..self.live.len()),
            Lifetime::DieYoung { bias } => {
                let len = self.live.len();
                if len >= 4 && self.rng.gen_bool(bias) {
                    self.rng.gen_range(len - len / 4..len)
                } else {
                    self.rng.gen_range(0..len)
                }
            }
        }
    }
}

impl Program for ChurnWorkload {
    fn name(&self) -> &str {
        "churn"
    }

    fn live_bound(&self) -> Size {
        Size::new(self.cfg.m)
    }

    fn frees(&mut self) -> Vec<ObjectId> {
        // Plan the batch first, then free enough to fit it under the
        // target occupancy.
        self.planned = (0..self.cfg.allocs_per_round)
            .map(|_| self.sampler.sample(&mut self.rng))
            .collect();
        let batch: u64 = self.planned.iter().map(|s| s.get()).sum();
        let target = (self.cfg.m as f64 * self.cfg.target_live) as u64;
        let mut freed = Vec::new();
        while !self.live.is_empty() && self.live_words + batch > target {
            let idx = self.pick_victim();
            let (id, size) = self.live.swap_remove(idx);
            self.live_words -= size.get();
            freed.push(id);
        }
        freed
    }

    fn allocs(&mut self) -> Vec<Size> {
        // Trim the plan to what actually fits under M (the engine enforces
        // the bound; the workload must respect it).
        let mut budget = self.cfg.m - self.live_words;
        let mut batch = Vec::new();
        for &size in &self.planned {
            if size.get() <= budget {
                budget -= size.get();
                batch.push(size);
            }
        }
        batch
    }

    fn placed(&mut self, id: ObjectId, _addr: Addr, size: Size) {
        self.live.push((id, size));
        self.live_words += size.get();
    }

    fn moved(&mut self, _id: ObjectId, _from: Addr, _to: Addr, _size: Size) -> MoveResponse {
        MoveResponse::Keep
    }

    fn round_done(&mut self) {
        self.round += 1;
    }

    fn finished(&self) -> bool {
        self.round >= self.cfg.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_alloc::ManagerKind;
    use pcb_heap::{Execution, Heap};

    fn run(cfg: ChurnConfig, kind: ManagerKind) -> pcb_heap::HeapSummary {
        let heap = if kind.is_compacting() {
            Heap::new(10)
        } else {
            Heap::non_moving()
        };
        let mut exec = Execution::new(
            heap,
            ChurnWorkload::new(cfg),
            kind.build(&pcb_heap::Params::new(cfg.m, cfg.log_n, 10).expect("valid")),
        );
        exec.run_summary().expect("churn runs")
    }

    #[test]
    fn churn_respects_the_live_bound() {
        let cfg = ChurnConfig::typical(1 << 12, 6);
        for kind in [
            ManagerKind::FirstFit,
            ManagerKind::Buddy,
            ManagerKind::PagesThm2,
        ] {
            let report = run(cfg, kind);
            assert!(report.peak_live <= cfg.m, "{kind}");
            assert!(report.objects_placed > 1000, "{kind}");
        }
    }

    #[test]
    fn typical_churn_wastes_far_less_than_the_worst_case() {
        // The paper: worst-case waste at c=10 is ~2x even with 10%
        // compaction. Typical churn against plain first-fit stays well
        // under that.
        let cfg = ChurnConfig::typical(1 << 12, 6);
        let report = run(cfg, ManagerKind::FirstFit);
        assert!(
            report.waste_factor < 1.8,
            "churn waste {} should be mild",
            report.waste_factor
        );
    }

    #[test]
    fn fixed_size_churn_needs_exactly_m_ish() {
        // The paper's Section 2 observation: single-size programs never
        // fragment — holes are always reusable.
        let cfg = ChurnConfig {
            dist: SizeDist::Fixed(4),
            ..ChurnConfig::typical(1 << 12, 6)
        };
        let report = run(cfg, ManagerKind::FirstFit);
        assert!(
            report.waste_factor <= 1.0 + 1e-9,
            "fixed-size churn wasted {}",
            report.waste_factor
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ChurnConfig::typical(1 << 12, 6);
        let a = run(cfg, ManagerKind::BestFit);
        let b = run(cfg, ManagerKind::BestFit);
        assert_eq!(a.heap_size, b.heap_size);
        assert_eq!(a.objects_placed, b.objects_placed);
    }

    #[test]
    fn lifetimes_differ_observably() {
        let base = ChurnConfig::typical(1 << 12, 6);
        let young = run(
            ChurnConfig {
                lifetime: Lifetime::DieYoung { bias: 0.95 },
                seed: 7,
                ..base
            },
            ManagerKind::FirstFit,
        );
        let uniform = run(
            ChurnConfig {
                lifetime: Lifetime::Uniform,
                seed: 7,
                ..base
            },
            ManagerKind::FirstFit,
        );
        // Not asserting an ordering (policy-dependent), only that the
        // model changes the outcome.
        assert_ne!(young.heap_size, uniform.heap_size);
    }
}
