//! The Bendersky–Petrank-style c-partial compacting manager `A_c`.
//!
//! POPL'11 ([4] in the paper) exhibits a simple c-partial manager that
//! serves every program in `P(M, n)` within a heap of `(c+1)·M` words: run
//! first-fit inside an arena of that size and, when the arena cannot serve
//! a request, slide every live object to the bottom. Between two slides the
//! program must have allocated at least `c·M` fresh words (the arena is
//! `(c+1)·M` and at most `M` of it is live), so each slide's cost of at
//! most `M` moved words stays within the `1/c` compaction budget.
//!
//! The implementation compacts lazily (on demand), moves only what the
//! budget allows, and rebuilds its free-space view from the ground truth
//! after each slide — so it stays correct even against the paper's `P_F`,
//! which frees every object the moment it is moved.

use pcb_heap::{
    Addr, AllocRequest, HeapOps, MemoryManager, MoveOutcome, ObjectId, PlacementError, Size,
};

use crate::freelist::{FitPolicy, FreeSpace};

/// A c-partial arena manager: first-fit within `(c+1)·M`, slide-compacting
/// when stuck.
///
/// ```
/// use pcb_alloc::CompactingManager;
/// let m = CompactingManager::new(10, 1 << 20);
/// assert_eq!(m.compactions(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CompactingManager {
    limit: u64,
    space: FreeSpace,
    compactions: u64,
}

impl CompactingManager {
    /// Creates the manager for compaction bound `c` and live bound `m`
    /// (words): the arena is `(c+1)·m` words.
    ///
    /// # Panics
    ///
    /// Panics if `c < 1` or `m == 0`.
    pub fn new(c: u64, m: u64) -> Self {
        assert!(c >= 1, "compaction bound must be at least 1");
        assert!(m > 0, "live bound must be positive");
        CompactingManager {
            limit: (c + 1) * m,
            space: FreeSpace::new(),
            compactions: 0,
        }
    }

    /// How many slide compactions have run.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether first-fit can serve `size` without breaching the arena.
    fn try_fit(&mut self, size: Size) -> Option<Addr> {
        self.space
            .try_take_within(size, FitPolicy::FirstFit, self.limit)
    }

    /// Slides live objects toward address 0 (in address order) as far as
    /// the budget allows, then rebuilds the free-space view from ground
    /// truth.
    fn compact(&mut self, ops: &mut HeapOps<'_, '_>) -> Result<(), PlacementError> {
        self.compactions += 1;
        // `live_objects` yields address order.
        let live: Vec<(ObjectId, Addr, Size)> = ops
            .heap()
            .live_objects()
            .map(|r| (r.id(), r.addr(), r.size()))
            .collect();

        let mut dest = Addr::ZERO;
        for (id, addr, size) in live {
            if addr == dest {
                dest += size;
                continue;
            }
            debug_assert!(dest < addr, "slide always moves left");
            if !ops.can_move(size) {
                // Out of budget: leave the object (and everything after the
                // gap) where it is, but keep packing after it.
                dest = addr + size;
                continue;
            }
            match ops.relocate(id, dest).map_err(PlacementError::from)? {
                MoveOutcome::Moved => dest += size,
                // The program freed the object on the spot (P_F's ghost
                // discipline); its slot is free again.
                MoveOutcome::Discarded => {}
            }
        }

        // Rebuild the manager's view from the ground truth.
        self.space.clear();
        let records: Vec<(Addr, Size)> = ops
            .heap()
            .live_objects()
            .map(|r| (r.addr(), r.size()))
            .collect();
        for (addr, size) in records {
            let ok = self.space.take_exact(addr, size);
            debug_assert!(ok, "ground truth is collision-free");
        }
        Ok(())
    }
}

impl MemoryManager for CompactingManager {
    fn name(&self) -> &str {
        "compacting-bp11"
    }

    fn place(
        &mut self,
        req: AllocRequest,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        if req.size.get() > self.limit {
            return Err(PlacementError::new(format!(
                "request {} exceeds the whole arena ({} words)",
                req.size, self.limit
            )));
        }
        if let Some(addr) = self.try_fit(req.size) {
            return Ok(addr);
        }
        self.compact(ops)?;
        self.try_fit(req.size).ok_or_else(|| {
            PlacementError::new(format!(
                "arena exhausted even after compaction (live {} of {}, request {})",
                ops.heap().live_words(),
                self.limit,
                req.size
            ))
        })
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        self.space.release(addr, size);
    }

    fn publish_metrics(&self) {
        self.space.publish_metrics();
    }

    fn arena(&self) -> Option<pcb_heap::Extent> {
        Some(pcb_heap::Extent::new(Addr::ZERO, Size::new(self.limit)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, Program, ScriptedProgram};

    #[test]
    fn stays_within_arena_on_churn() {
        // c = 2, M = 64 words -> arena 192 words. Churn far more than the
        // arena through the manager; HS must stay <= 192.
        let m_bound = 64u64;
        // A hand-rolled Robson-style doubling schedule: after each step,
        // survivors are spaced so that no hole fits the next (doubled)
        // size, pushing the frontier by M/2 per step until the (c+1)M
        // arena is exhausted and the manager must slide-compact.
        // Allocation indices: ones 0..64, twos 64..80, fours 80..88,
        // eights 88..92, sixteens 92..94, the final 32-word object 94.
        let program = ScriptedProgram::new(Size::new(m_bound))
            .round([], vec![1u64; 64])
            .round((1..64).step_by(2), vec![2u64; 16])
            .round((2..64).step_by(4).chain((65..80).step_by(2)), vec![4u64; 8])
            .round(
                (4..64)
                    .step_by(8)
                    .chain((66..80).step_by(4))
                    .chain((81..88).step_by(2)),
                vec![8u64; 4],
            )
            .round(
                (8..64)
                    .step_by(16)
                    .chain((68..80).step_by(8))
                    .chain((82..88).step_by(4))
                    .chain((89..92).step_by(2)),
                vec![16u64; 2],
            )
            .round([16, 48, 72, 84, 90, 93], vec![32u64]);
        let mut exec = Execution::new(Heap::new(2), program, CompactingManager::new(2, m_bound));
        let report = exec.run_summary().expect("manager serves the churn");
        assert!(
            report.heap_size <= 3 * m_bound,
            "HS {} exceeds (c+1)M = {}",
            report.heap_size,
            3 * m_bound
        );
        assert!(report.moved_fraction <= 0.5 + 1e-12);
        let (_, _, manager) = exec.into_parts();
        assert!(manager.compactions() >= 1, "churn must trigger compaction");
    }

    #[test]
    fn compaction_budget_is_never_violated() {
        // The Heap enforces the ledger; a successful run plus a check of
        // moved_fraction is the assertion.
        let m_bound = 32u64;
        let mut program = ScriptedProgram::new(Size::new(m_bound));
        let mut base = 0usize;
        for _ in 0..40 {
            program = program
                .round([], vec![2u64; 16])
                .round((base..base + 16).step_by(2), [])
                .round((base..base + 16).skip(1).step_by(2), []);
            base += 16;
        }
        let mut exec = Execution::new(Heap::new(4), program, CompactingManager::new(4, m_bound));
        let report = exec.run_summary().expect("no budget violation");
        assert!(report.moved_fraction <= 0.25 + 1e-12);
        assert!(report.heap_size <= 5 * m_bound);
    }

    #[test]
    fn simple_fill_does_not_compact() {
        let program = ScriptedProgram::new(Size::new(100)).round([], [10, 10, 10]);
        let mut exec = Execution::new(Heap::new(10), program, CompactingManager::new(10, 100));
        let report = exec.run_summary().unwrap();
        assert_eq!(report.objects_moved, 0);
        assert_eq!(report.heap_size, 30);
    }

    #[test]
    fn oversized_request_fails_cleanly() {
        let program = ScriptedProgram::new(Size::new(100)).round([], [10_000]);
        let mut exec = Execution::new(Heap::new(10), program, CompactingManager::new(10, 100));
        assert!(exec.run_summary().is_err());
    }

    #[test]
    fn holes_are_reused_before_frontier() {
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [10, 10, 10])
            .round([1], [10]);
        let mut exec = Execution::new(Heap::new(10), program, CompactingManager::new(10, 100));
        let report = exec.run_summary().unwrap();
        assert_eq!(
            report.heap_size, 30,
            "freed middle hole absorbed the request"
        );
    }

    #[test]
    fn live_bound_is_what_matters_not_object_count() {
        // Many tiny objects: live bound 16 words, c=3 -> arena 64 words.
        let mut program = ScriptedProgram::new(Size::new(16));
        let mut base = 0usize;
        for _ in 0..50 {
            program = program.round([], vec![1u64; 16]).round(base..base + 16, []);
            base += 16;
        }
        let finished = program.finished();
        assert!(!finished);
        let mut exec = Execution::new(Heap::new(3), program, CompactingManager::new(3, 16));
        let report = exec.run_summary().unwrap();
        assert!(report.heap_size <= 64);
    }
}
