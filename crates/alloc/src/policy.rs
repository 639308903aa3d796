//! Classic non-moving free-list managers (first/best/worst/next-fit).
//!
//! These are the victims of Robson's lower bound: they never move objects,
//! so the paper's no-compaction results apply to them directly. They also
//! serve as the non-moving baselines in the empirical experiments.

use pcb_heap::{
    Addr, AllocRequest, HeapOps, MemoryManager, MirrorCheck, ObjectId, PlacementError, Size,
    SpaceMap,
};
use pcb_metrics::Histogram;

use crate::freelist::{FitPolicy, FreeSpace};
use crate::{publish_count, publish_samples};

/// A non-moving manager applying one of the classic fit policies.
///
/// ```
/// use pcb_alloc::FreeListManager;
/// use pcb_alloc::FitPolicy;
/// let m = FreeListManager::new(FitPolicy::BestFit);
/// assert_eq!(pcb_heap::MemoryManager::name(&m), "best-fit");
/// ```
#[derive(Debug, Clone)]
pub struct FreeListManager {
    policy: FitPolicy,
    space: FreeSpace,
    cursor: Addr,
    /// Requests served from a gap (`freelist.gap_serves`) and from the
    /// frontier (`freelist.frontier_serves`); together, the placements.
    gap_serves: u64,
    frontier_serves: u64,
    /// Sampled only while the metrics registry is on: request sizes
    /// (`alloc.size`), the gaps they were carved from
    /// (`freelist.hole_size`) and next-fit's probes (`freelist.probes`).
    sizes: Histogram,
    holes: Histogram,
    probes: Histogram,
}

impl FreeListManager {
    /// Creates a manager with the given policy.
    pub fn new(policy: FitPolicy) -> Self {
        FreeListManager {
            policy,
            space: FreeSpace::new(),
            cursor: Addr::ZERO,
            gap_serves: 0,
            frontier_serves: 0,
            sizes: Histogram::new(),
            holes: Histogram::new(),
            probes: Histogram::new(),
        }
    }
}

impl MemoryManager for FreeListManager {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn place(
        &mut self,
        req: AllocRequest,
        _ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let (addr, gap_len, probes) = match self.policy {
            FitPolicy::NextFit => {
                let (addr, gap_len, probes) = self.space.take_next_fit(req.size, &mut self.cursor);
                (addr, gap_len, Some(probes))
            }
            p => {
                let (addr, gap_len) = self.space.take(req.size, p);
                (addr, gap_len, None)
            }
        };
        match gap_len {
            Some(_) => self.gap_serves += 1,
            None => self.frontier_serves += 1,
        }
        if pcb_metrics::enabled() {
            self.sizes.record(req.size.get());
            if let Some(len) = gap_len {
                self.holes.record(len);
            }
            if let Some(probes) = probes {
                self.probes.record(probes);
            }
        }
        Ok(addr)
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        self.space.release(addr, size);
    }

    fn publish_metrics(&self) {
        publish_count(
            "freelist.placements",
            self.gap_serves + self.frontier_serves,
        );
        publish_count("freelist.gap_serves", self.gap_serves);
        publish_count("freelist.frontier_serves", self.frontier_serves);
        publish_samples("alloc.size", &self.sizes);
        publish_samples("freelist.hole_size", &self.holes);
        publish_samples("freelist.probes", &self.probes);
        self.space.publish_metrics();
    }

    /// The free list is a redundant mirror of the ground truth: every
    /// gap it would hand out must be free in the referee. The check is
    /// one-sided by design — the mirror may legitimately not know about
    /// free space (it never saw a release there), but it must never
    /// claim free space that the referee says is occupied, because that
    /// is the corruption class that turns into an overlapping placement.
    fn mirror_check(&self, space: &SpaceMap) -> MirrorCheck {
        if let Err(detail) = self.space.check_invariants() {
            return MirrorCheck::Divergent(format!("free-list invariants broken: {detail}"));
        }
        for gap in self.space.gaps() {
            if !space.is_free(gap) {
                return MirrorCheck::Divergent(format!(
                    "free-list gap [{}, {}) is occupied in the space map",
                    gap.start().get(),
                    gap.end().get()
                ));
            }
        }
        // Both sides retreat their frontier to one past the highest
        // occupied word, so a mirror frontier *below* the referee's
        // means the mirror believes the referee's top objects are free
        // — the frontier-placement flavour of the same corruption.
        if self.space.frontier() < space.frontier() {
            return MirrorCheck::Divergent(format!(
                "free-list frontier {} is below the space-map frontier {}",
                self.space.frontier().get(),
                space.frontier().get()
            ));
        }
        MirrorCheck::Clean
    }

    /// Plants a guaranteed-detectable corruption: one word that the
    /// referee knows is live is released into the free list, as if a
    /// stray bit-flip had resurrected it. The victim is chosen from
    /// `roll` over the referee's extents (in address order), so the same
    /// roll corrupts the same word everywhere.
    fn inject_mirror_fault(&mut self, roll: u64, space: &SpaceMap) -> bool {
        let occupied = space.iter().count();
        if occupied == 0 {
            return false;
        }
        let (extent, _) = space
            .iter()
            .nth(roll as usize % occupied)
            .expect("index < count");
        let word = extent.start().get() + roll % extent.size().get();
        self.space.release(Addr::new(word), Size::new(1));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    fn run_script(policy: FitPolicy) -> pcb_heap::HeapSummary {
        // Allocate 8 objects of 4 words, free the even ones, then allocate
        // sizes that probe the holes.
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [4, 4, 4, 4, 4, 4, 4, 4])
            .round([0, 2, 4, 6], [4, 4, 2, 2]);
        let mut exec = Execution::new(Heap::non_moving(), program, FreeListManager::new(policy));
        exec.run_summary().expect("script runs")
    }

    #[test]
    fn all_policies_serve_the_script() {
        for policy in FitPolicy::ALL {
            let report = run_script(policy);
            assert_eq!(report.objects_placed, 12, "{}", policy.name());
            assert_eq!(report.objects_moved, 0, "non-moving manager moved");
        }
    }

    #[test]
    fn first_fit_fills_holes_in_address_order() {
        let report = run_script(FitPolicy::FirstFit);
        // 8 * 4 = 32 words; the four freed holes (4w each) absorb the two
        // 4w and two 2w requests, so the heap never grows past 32.
        assert_eq!(report.heap_size, 32);
    }

    #[test]
    fn best_fit_also_reuses_exact_holes() {
        let report = run_script(FitPolicy::BestFit);
        assert_eq!(report.heap_size, 32);
    }

    #[test]
    fn worst_fit_wastes_when_holes_are_equal() {
        // With equal-size holes worst-fit still reuses them.
        let report = run_script(FitPolicy::WorstFit);
        assert_eq!(report.heap_size, 32);
    }

    #[test]
    fn injected_mirror_fault_is_caught_by_mirror_check() {
        for policy in FitPolicy::ALL {
            let program = ScriptedProgram::new(Size::new(1024))
                .round([], [4, 4, 4, 4])
                .round([1, 3], [2]);
            let mut exec =
                Execution::new(Heap::non_moving(), program, FreeListManager::new(policy));
            exec.run_summary().expect("clean run");
            let (heap, _, mut manager) = exec.into_parts();
            assert_eq!(
                manager.mirror_check(heap.space()),
                MirrorCheck::Clean,
                "{} diverged without a fault",
                policy.name()
            );
            assert!(manager.inject_mirror_fault(0xDEAD_BEEF, heap.space()));
            assert!(
                matches!(
                    manager.mirror_check(heap.space()),
                    MirrorCheck::Divergent(_)
                ),
                "{} missed the planted fault",
                policy.name()
            );
        }
    }

    #[test]
    fn managers_never_place_overlapping() {
        // The engine verifies placements against the ground truth; a
        // successful run is the assertion.
        for policy in FitPolicy::ALL {
            let program = ScriptedProgram::new(Size::new(4096))
                .round([], (1..=32).collect::<Vec<u64>>())
                .round(
                    (0..32).step_by(2),
                    (1..=16).map(|s| s * 2).collect::<Vec<u64>>(),
                )
                .round((1..32).step_by(4), [64, 1, 7, 13].to_vec());
            let mut exec =
                Execution::new(Heap::non_moving(), program, FreeListManager::new(policy));
            exec.run_summary().expect("no conflicts");
        }
    }
}
