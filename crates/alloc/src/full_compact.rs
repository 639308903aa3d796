//! The full-compaction baseline: a manager with *unlimited* compaction
//! budget that keeps the heap perfectly dense.
//!
//! The paper's opening contrast: "if we were willing to execute a full
//! compaction after each de-allocation, then the overhead factor would
//! have been 1. We could have used a heap size of 256MB and serve all
//! allocation and de-allocation requests." This manager realizes that
//! ideal — and therefore is **not** c-partial for any `c`: run it on
//! [`pcb_heap::Heap::unlimited_compaction`] (a budgeted heap will reject
//! its moves, failing the run loudly, which is itself a useful test).
//!
//! Used by the experiments as the ground-truth demonstration that `P_F`'s
//! fragmentation is *caused* by the compaction bound: against this
//! manager the same adversary achieves waste factor ≈ 1.

use pcb_heap::{
    Addr, AllocRequest, HeapOps, MemoryManager, MoveOutcome, ObjectId, PlacementError, Size,
};

/// A manager that slide-compacts the whole heap whenever a request cannot
/// be served at the current frontier without growing past the live size.
///
/// ```
/// use pcb_alloc::FullCompactor;
/// let m = FullCompactor::new();
/// assert_eq!(pcb_heap::MemoryManager::name(&m), "full-compaction");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FullCompactor {
    /// Bump pointer; reset by each compaction.
    top: u64,
    compactions: u64,
}

impl FullCompactor {
    /// Creates the manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of full compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

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
            match ops.relocate(id, dest).map_err(PlacementError::from)? {
                MoveOutcome::Moved => dest += size,
                MoveOutcome::Discarded => {}
            }
        }
        self.top = dest.get();
        Ok(())
    }
}

impl MemoryManager for FullCompactor {
    fn name(&self) -> &str {
        "full-compaction"
    }

    fn place(
        &mut self,
        req: AllocRequest,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        // Compact whenever placing at the bump pointer would grow the heap
        // beyond live + request (i.e. whenever there is any garbage below
        // the frontier).
        let live = ops.heap().live_words();
        if self.top > live.get() {
            self.compact(ops)?;
        }
        let addr = Addr::new(self.top);
        self.top += req.size.get();
        Ok(addr)
    }

    fn note_free(&mut self, _id: ObjectId, _addr: Addr, _size: Size) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    #[test]
    fn heap_stays_at_peak_live_under_churn() {
        let mut program = ScriptedProgram::new(Size::new(64));
        let mut base = 0usize;
        for _ in 0..10 {
            program = program
                .round([], vec![4u64; 16]) // 64 live
                .round((base..base + 16).step_by(2), vec![8u64; 4]); // holes then 32 more
            program = program.round(
                (base..base + 16)
                    .skip(1)
                    .step_by(2)
                    .chain(base + 16..base + 20),
                [],
            );
            base += 20;
        }
        let mut exec = Execution::new(Heap::unlimited_compaction(), program, FullCompactor::new());
        let report = exec.run_summary().expect("runs");
        assert_eq!(
            report.heap_size, report.peak_live,
            "full compaction keeps HS = peak live"
        );
        let (_, _, manager) = exec.into_parts();
        assert!(manager.compactions() > 0);
    }

    #[test]
    fn budgeted_heap_rejects_it() {
        // On a c-partial heap the same manager violates the ledger: the
        // run must fail rather than silently under-compact.
        let program = ScriptedProgram::new(Size::new(64))
            .round([], vec![4u64; 16])
            .round((0..16).step_by(2), vec![4u64; 8]);
        let mut exec = Execution::new(Heap::new(100), program, FullCompactor::new());
        assert!(
            exec.run_summary().is_err(),
            "ledger must reject unlimited moving"
        );
    }
}
