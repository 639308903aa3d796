//! Segregated-storage allocation: one free list per power-of-two size
//! class, with no splitting or coalescing across classes.
//!
//! This is the simplest size-class allocator; each class grows its own pool
//! from the shared frontier. Its per-class space can never be reused by
//! other classes, which makes it the most fragile baseline against
//! adversaries that shift the size distribution between steps — a useful
//! contrast to the buddy and free-list managers in the empirical harness.
//!
//! The per-class free sets only ever need "insert" and "pop the minimum",
//! so each class is a binary min-heap (no lazy deletion needed: slots
//! leave the set only via pop). The seed `BTreeSet<u64>` per class
//! survives only as a test oracle (`tests/oracle/`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pcb_heap::{Addr, AllocRequest, HeapOps, MemoryManager, ObjectId, PlacementError, Size};

/// A non-moving segregated-storage manager.
///
/// ```
/// use pcb_alloc::SegregatedManager;
/// let m = SegregatedManager::new(12);
/// assert_eq!(pcb_heap::MemoryManager::name(&m), "segregated");
/// ```
#[derive(Debug, Clone)]
pub struct SegregatedManager {
    /// `free[k]` holds start addresses of free `2^k`-word slots.
    free: Vec<BinaryHeap<Reverse<u64>>>,
    max_order: u32,
    frontier: u64,
}

impl SegregatedManager {
    /// Creates a manager with size classes `2^0 .. 2^max_order`.
    pub fn new(max_order: u32) -> Self {
        assert!(
            max_order < 48,
            "max_order {max_order} is unreasonably large"
        );
        SegregatedManager {
            free: (0..=max_order).map(|_| BinaryHeap::new()).collect(),
            max_order,
            frontier: 0,
        }
    }

    /// Free slots per class (diagnostics).
    pub fn free_slots(&self) -> Vec<usize> {
        self.free.iter().map(BinaryHeap::len).collect()
    }

    fn class_for(size: Size) -> u32 {
        size.next_power_of_two().log2()
    }
}

impl MemoryManager for SegregatedManager {
    fn name(&self) -> &str {
        "segregated"
    }

    fn place(
        &mut self,
        req: AllocRequest,
        _ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let k = Self::class_for(req.size);
        if k > self.max_order {
            return Err(PlacementError::new(format!(
                "request {} exceeds the largest class 2^{}",
                req.size, self.max_order
            )));
        }
        if let Some(Reverse(slot)) = self.free[k as usize].pop() {
            return Ok(Addr::new(slot));
        }
        let addr = self.frontier;
        self.frontier += 1 << k;
        Ok(Addr::new(addr))
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        let k = Self::class_for(size);
        self.free[k as usize].push(Reverse(addr.get()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    #[test]
    fn slots_are_reused_within_a_class() {
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [8, 8, 8])
            .round([1], [8]);
        let mut exec = Execution::new(Heap::non_moving(), program, SegregatedManager::new(10));
        let report = exec.run_summary().unwrap();
        assert_eq!(report.heap_size, 24, "the freed middle slot is reused");
    }

    #[test]
    fn classes_do_not_share_space() {
        // Free all the 8-word slots, then allocate 16-word objects: the
        // freed space cannot be reused (that is the policy's weakness).
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [8, 8, 8, 8])
            .round([0, 1, 2, 3], [16, 16]);
        let mut exec = Execution::new(Heap::non_moving(), program, SegregatedManager::new(10));
        let report = exec.run_summary().unwrap();
        assert_eq!(report.heap_size, 32 + 32);
    }

    #[test]
    fn sizes_round_up_to_class() {
        let program = ScriptedProgram::new(Size::new(1024)).round([], [5, 5]);
        let mut exec = Execution::new(Heap::non_moving(), program, SegregatedManager::new(10));
        exec.run_summary().unwrap();
        let mut addrs: Vec<u64> = exec.heap().live_objects().map(|r| r.addr().get()).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0, 8], "5-word objects occupy 8-word slots");
    }

    #[test]
    fn oversized_is_rejected() {
        let program = ScriptedProgram::new(Size::new(4096)).round([], [2049]);
        let mut exec = Execution::new(Heap::non_moving(), program, SegregatedManager::new(11));
        assert!(exec.run_summary().is_err());
    }
}
