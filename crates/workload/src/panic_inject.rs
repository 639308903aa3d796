//! A program wrapper that panics mid-run — the chaos `tenant-panic`
//! fault made executable.
//!
//! Fleet fault isolation (`catch_unwind` around each tenant) needs a
//! tenant that actually unwinds, at a deterministic point, with a
//! recognizable message. [`PanicProgram`] wraps any [`Program`] and
//! panics at the start of a chosen round's allocation phase; until that
//! round it forwards every call unchanged, so the poisoned tenant's
//! partial execution is identical to the healthy one.

use pcb_heap::{Addr, MoveResponse, ObjectId, Program, Size};

/// The prefix of every injected panic message (fleet reports match on
/// it to classify the failure).
pub const PANIC_MESSAGE_PREFIX: &str = "injected tenant panic";

/// Wraps a program so it panics at the start of round `panic_round`'s
/// allocation phase (0-based; a wrapped program that finishes earlier
/// never panics).
#[derive(Debug)]
pub struct PanicProgram<P> {
    inner: P,
    panic_round: u32,
    round: u32,
}

impl<P: Program> PanicProgram<P> {
    /// Wraps `inner`, scheduling the panic for round `panic_round`.
    pub fn new(inner: P, panic_round: u32) -> Self {
        PanicProgram {
            inner,
            panic_round,
            round: 0,
        }
    }

    /// The scheduled panic round.
    pub fn panic_round(&self) -> u32 {
        self.panic_round
    }
}

impl<P: Program> Program for PanicProgram<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn live_bound(&self) -> Size {
        self.inner.live_bound()
    }

    fn frees(&mut self) -> Vec<ObjectId> {
        self.inner.frees()
    }

    fn allocs(&mut self) -> Vec<Size> {
        if self.round == self.panic_round {
            panic!("{PANIC_MESSAGE_PREFIX} (round {})", self.round);
        }
        self.inner.allocs()
    }

    fn placed(&mut self, id: ObjectId, addr: Addr, size: Size) {
        self.inner.placed(id, addr, size)
    }

    fn moved(&mut self, id: ObjectId, from: Addr, to: Addr, size: Size) -> MoveResponse {
        self.inner.moved(id, from, to, size)
    }

    fn round_done(&mut self) {
        self.round += 1;
        self.inner.round_done()
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_alloc::{FitPolicy, FreeListManager};
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    fn script() -> ScriptedProgram {
        ScriptedProgram::new(Size::new(100))
            .round([], [4])
            .round([], [4])
            .round([], [4])
    }

    fn run(program: PanicProgram<ScriptedProgram>) -> pcb_heap::HeapSummary {
        let manager = FreeListManager::new(FitPolicy::FirstFit);
        let mut exec = Execution::new(Heap::non_moving(), program, manager);
        exec.run_summary().unwrap()
    }

    #[test]
    fn panics_at_the_scheduled_round_with_the_marker_message() {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(PanicProgram::new(script(), 1))
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(PANIC_MESSAGE_PREFIX), "message: {msg}");
        assert!(msg.contains("round 1"), "message: {msg}");
    }

    #[test]
    fn never_panics_when_scheduled_after_the_final_round() {
        let report = run(PanicProgram::new(script(), 10));
        assert_eq!(report.rounds, 3);
        assert_eq!(report.objects_placed, 3);
    }

    #[test]
    fn behaves_identically_before_the_panic_round() {
        // The wrapper must not perturb execution up to the panic: the
        // same script wrapped with a far-future panic reports the same
        // numbers as the bare script.
        let bare = {
            let manager = FreeListManager::new(FitPolicy::FirstFit);
            let mut exec = Execution::new(Heap::non_moving(), script(), manager);
            exec.run_summary().unwrap()
        };
        let wrapped = run(PanicProgram::new(script(), u32::MAX));
        assert_eq!(bare.heap_size, wrapped.heap_size);
        assert_eq!(bare.objects_placed, wrapped.objects_placed);
    }
}
