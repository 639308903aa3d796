//! Robson's bad program `P_R` (Algorithm 2 of the paper).
//!
//! Against any *non-moving* manager, `P_R` forces a heap of
//! `M·(½·log₂ n + 1) − n + 1` words (Robson 1974; quoted as the first
//! display of Section 2.2). It works in steps `i = 1..=log₂ n`: pick an
//! offset `f_i ∈ {f_{i−1}, f_{i−1} + 2^{i−1}}` maximizing the wasted space
//! `Σ (2^i − |o|)` over `f_i`-occupying objects, free everything else, and
//! fill the freed budget with `2^i`-word objects. Surviving objects pin
//! one word per `2^i`-chunk, so no freed chunk can ever serve a larger
//! object.

use std::collections::HashMap;

use pcb_heap::{Addr, MoveResponse, ObjectId, Program, Size};

use crate::occupancy::{is_f_occupying, OffsetTracker};

/// Robson's bad program `P_R`.
///
/// ```
/// use pcb_adversary::RobsonProgram;
/// // M(log n/2 + 1) - n + 1 at M = 4096, n = 64:
/// let bound = RobsonProgram::robson_lower_bound(4096, 6);
/// assert_eq!(bound, 4096.0 * 4.0 - 63.0);
/// ```
///
/// Note `P_R` assumes a non-moving manager (use
/// [`pcb_heap::Heap::non_moving`]); against a compacting manager, use
/// [`PfProgram`](crate::PfProgram), whose stage I is the
/// compaction-hardened version of this program.
#[derive(Debug)]
pub struct RobsonProgram {
    m: u64,
    steps: u32,
    round: u32,
    f: u64,
    live: HashMap<ObjectId, (Addr, Size)>,
    live_words: u64,
    /// Incrementally maintained candidate scores for the next offset
    /// choice (replaces the per-step full-inventory score passes).
    tracker: OffsetTracker,
    /// `(step, f, survivors, words_freed)` per step, for analysis.
    step_log: Vec<StepSummary>,
}

/// Per-step summary of a [`RobsonProgram`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSummary {
    /// Step index `i`.
    pub step: u32,
    /// Chosen offset `f_i`.
    pub f: u64,
    /// Number of `f_i`-occupying survivors after the free phase.
    pub survivors: usize,
    /// Words freed in the step.
    pub words_freed: u64,
}

impl RobsonProgram {
    /// Creates the program with live bound `m` words and maximum object
    /// size `2^log_n` (so it runs steps `1..=log_n`).
    ///
    /// # Panics
    ///
    /// Panics if `m < 2^log_n` (the program must be able to hold at least
    /// one largest object) or `log_n == 0`.
    pub fn new(m: u64, log_n: u32) -> Self {
        assert!(log_n > 0, "log_n must be positive");
        assert!(m >= 1 << log_n, "M must be at least n");
        RobsonProgram {
            m,
            steps: log_n,
            round: 0,
            f: 0,
            live: HashMap::new(),
            live_words: 0,
            tracker: OffsetTracker::new(),
            step_log: Vec::new(),
        }
    }

    /// Per-step summaries (populated as the run progresses).
    pub fn step_log(&self) -> &[StepSummary] {
        &self.step_log
    }

    /// The lower bound `P_R` realizes against non-moving managers:
    /// `M·(½·log₂ n + 1) − n + 1`.
    pub fn robson_lower_bound(m: u64, log_n: u32) -> f64 {
        m as f64 * (0.5 * log_n as f64 + 1.0) - (1u64 << log_n) as f64 + 1.0
    }
}

impl Program for RobsonProgram {
    fn name(&self) -> &str {
        "robson"
    }

    fn live_bound(&self) -> Size {
        Size::new(self.m)
    }

    fn frees(&mut self) -> Vec<ObjectId> {
        if self.round == 0 || self.round > self.steps {
            return Vec::new();
        }
        let i = self.round;
        debug_assert_eq!(self.tracker.step(), i);
        self.f = self.tracker.choose();
        let f = self.f;
        let mut freed: Vec<ObjectId> = self
            .live
            .iter()
            .filter(|(_, &(addr, size))| !is_f_occupying(addr, size, f, i))
            .map(|(&id, _)| id)
            .collect();
        freed.sort_unstable();
        let mut words = 0;
        for id in &freed {
            let (_, size) = self.live.remove(id).expect("selected from live");
            words += size.get();
            self.live_words -= size.get();
        }
        // Seed the step-(i+1) candidate scores from the survivors; later
        // allocations accumulate via `placed`.
        self.tracker.advance(f, i + 1);
        for &(addr, size) in self.live.values() {
            self.tracker.add(addr, size);
        }
        self.step_log.push(StepSummary {
            step: i,
            f,
            survivors: self.live.len(),
            words_freed: words,
        });
        freed
    }

    fn allocs(&mut self) -> Vec<Size> {
        if self.round > self.steps {
            return Vec::new();
        }
        if self.round == 0 {
            return vec![Size::WORD; self.m as usize];
        }
        let size = 1u64 << self.round;
        let count = (self.m - self.live_words) / size;
        vec![Size::new(size); count as usize]
    }

    fn placed(&mut self, id: ObjectId, addr: Addr, size: Size) {
        self.live.insert(id, (addr, size));
        self.live_words += size.get();
        self.tracker.add(addr, size);
    }

    fn moved(&mut self, id: ObjectId, from: Addr, to: Addr, size: Size) -> MoveResponse {
        // P_R is designed for non-moving managers; if one moves anyway we
        // just track the new location and keep the object.
        self.live.insert(id, (to, size));
        self.tracker.remove(from, size);
        self.tracker.add(to, size);
        MoveResponse::Keep
    }

    fn round_done(&mut self) {
        self.round += 1;
    }

    fn finished(&self) -> bool {
        self.round > self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap};

    /// A bump allocator: the weakest possible victim.
    #[derive(Debug, Default)]
    struct Bump(u64);
    impl pcb_heap::MemoryManager for Bump {
        fn name(&self) -> &str {
            "bump"
        }
        fn place(
            &mut self,
            req: pcb_heap::AllocRequest,
            _ops: &mut pcb_heap::HeapOps<'_, '_>,
        ) -> Result<Addr, pcb_heap::PlacementError> {
            let a = Addr::new(self.0);
            self.0 += req.size.get();
            Ok(a)
        }
        fn note_free(&mut self, _: ObjectId, _: Addr, _: Size) {}
    }

    #[test]
    fn runs_all_steps_and_respects_live_bound() {
        let m = 1 << 10;
        let program = RobsonProgram::new(m, 4);
        let mut exec = Execution::new(Heap::non_moving(), program, Bump::default());
        let report = exec.run_summary().expect("run succeeds");
        assert_eq!(report.rounds, 5, "fill + 4 steps");
        assert!(report.peak_live <= m);
        let (_, program, _) = exec.into_parts();
        assert_eq!(program.step_log().len(), 4);
        for s in program.step_log() {
            assert!(s.survivors > 0, "step {} kept survivors", s.step);
        }
    }

    #[test]
    fn survivor_counts_match_claim_4_9() {
        // Claim 4.9: after step i at least M·(i+2)/(2^{i+2}) objects are
        // f_i-occupying. (Survivors at the step's free phase are exactly
        // the f_i-occupying objects.)
        let m = 1u64 << 12;
        let program = RobsonProgram::new(m, 6);
        let mut exec = Execution::new(Heap::non_moving(), program, Bump(0));
        exec.run_summary().unwrap();
        let (_, program, _) = exec.into_parts();
        for s in program.step_log() {
            let claim = (m as f64) * (s.step as f64 + 2.0) / (1u64 << (s.step + 2)) as f64;
            assert!(
                s.survivors as f64 >= claim.floor(),
                "step {}: {} survivors < {claim}",
                s.step,
                s.survivors
            );
        }
    }

    #[test]
    fn forces_large_heap_on_first_fit() {
        // Against first-fit, P_R must force at least... Robson's bound is
        // for the best possible allocator, so any allocator does at least
        // as badly. Use a small instance where the bound is meaningful.
        use pcb_alloc::{FitPolicy, FreeListManager};
        let m = 1u64 << 10;
        let log_n = 5u32;
        let program = RobsonProgram::new(m, log_n);
        let mut exec = Execution::new(
            Heap::non_moving(),
            program,
            FreeListManager::new(FitPolicy::FirstFit),
        );
        let report = exec.run_summary().unwrap();
        let bound = RobsonProgram::robson_lower_bound(m, log_n);
        assert!(
            report.heap_size as f64 >= bound,
            "HS {} < Robson bound {bound}",
            report.heap_size
        );
    }

    #[test]
    #[should_panic(expected = "M must be at least n")]
    fn tiny_m_is_rejected() {
        let _ = RobsonProgram::new(4, 4);
    }
}
