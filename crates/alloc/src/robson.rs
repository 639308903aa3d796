//! A Robson-style bounded-fragmentation non-moving allocator.
//!
//! Robson (JACM 1971/1974) showed that for programs in `P2(M, n)` a
//! carefully aligned non-moving allocator needs only
//! `M·(½·log₂ n + 1) − n + 1` words, matching his lower bound. The optimal
//! allocator's discipline is: place each object of size `2^k` at the lowest
//! address that is `2^k`-aligned and free. [`RobsonAllocator`] implements
//! exactly that discipline on top of the buddy block structure (a buddy
//! decomposition of the free space with lowest-address block selection is
//! equivalent to lowest-aligned-fit over block-aligned placements).
//!
//! For programs with arbitrary sizes it rounds requests up to the next
//! power of two, which at most doubles the live space — the same doubling
//! argument the paper quotes in Section 2.2.

use pcb_heap::{Addr, AllocRequest, HeapOps, MemoryManager, ObjectId, PlacementError, Size};

use crate::buddy::{BuddyAllocator, BuddySelect};

/// Non-moving aligned allocator in the spirit of Robson's `A_o`.
///
/// ```
/// use pcb_alloc::RobsonAllocator;
/// let m = RobsonAllocator::new(20);
/// assert_eq!(pcb_heap::MemoryManager::name(&m), "robson-aligned");
/// ```
#[derive(Debug, Clone)]
pub struct RobsonAllocator {
    inner: BuddyAllocator,
}

impl RobsonAllocator {
    /// Creates an allocator serving objects up to `2^max_order` words.
    pub fn new(max_order: u32) -> Self {
        RobsonAllocator {
            inner: BuddyAllocator::new(max_order, BuddySelect::LowestAddr),
        }
    }

    /// The largest servable request.
    pub fn max_block(&self) -> Size {
        self.inner.max_block()
    }
}

impl MemoryManager for RobsonAllocator {
    fn name(&self) -> &str {
        "robson-aligned"
    }

    fn place(
        &mut self,
        req: AllocRequest,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        self.inner.place(req, ops)
    }

    fn note_free(&mut self, id: ObjectId, addr: Addr, size: Size) {
        self.inner.note_free(id, addr, size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    #[test]
    fn placements_use_lowest_aligned_addresses() {
        // Allocate 4,2,1: the 4 goes at 0, the 2 at 4, the 1 at 6. Free the
        // 2; allocating a 2 again must reuse address 4.
        let program = ScriptedProgram::new(Size::new(64))
            .round([], [4, 2, 1])
            .round([1], [2]);
        let mut exec = Execution::new(Heap::non_moving(), program, RobsonAllocator::new(6));
        let report = exec.run_summary().unwrap();
        assert_eq!(report.heap_size, 7);
        let two = exec
            .heap()
            .live_objects()
            .find(|r| r.size() == Size::new(2))
            .unwrap();
        assert_eq!(two.addr(), Addr::new(4));
    }

    #[test]
    fn worst_case_stays_under_robsons_upper_bound() {
        // A crude adversarial churn with M = 64, n = 8: Robson's bound is
        // M(0.5*3 + 1) - n + 1 = 64*2.5 - 7 = 153.
        let m = 64u64;
        let mut program = ScriptedProgram::new(Size::new(m));
        let mut base = 0usize;
        let mut prev_kept: Vec<usize> = Vec::new();
        let mut pending_free: Vec<usize> = Vec::new();
        for round in 0..12u64 {
            let size = 1u64 << (round % 4);
            let count = ((m / 2) / size) as usize;
            program = program.round(pending_free.clone(), vec![size; count]);
            // Keep every fourth object of this round for one more round.
            pending_free = (base..base + count)
                .filter(|i| !(i - base).is_multiple_of(4))
                .collect();
            pending_free.append(&mut prev_kept);
            prev_kept = (base..base + count).step_by(4).collect();
            base += count;
        }
        let mut exec = Execution::new(Heap::non_moving(), program, RobsonAllocator::new(3));
        let report = exec.run_summary().unwrap();
        let bound = (m as f64) * (0.5 * 3.0 + 1.0) - 8.0 + 1.0;
        assert!(
            (report.heap_size as f64) <= bound,
            "HS {} exceeds Robson's bound {bound}",
            report.heap_size
        );
    }
}
