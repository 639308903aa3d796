//! Cross-manager trace replay: take the allocation/free *sequence* of a
//! recorded execution and drive it against a different manager.
//!
//! A [`pcb_heap::Trace`] records concrete placements; this module reuses
//! only its *request stream* (sizes, free timing, round structure), so
//! you can ask "what would this same workload have cost under manager
//! X?" — the comparison that motivates every allocator bake-off.
//!
//! Moves in the original trace are ignored (the new manager makes its own
//! compaction choices); objects the original program freed in response to
//! moves appear as ordinary frees, preserving the stream's semantics.

use std::collections::HashMap;

use pcb_heap::{Addr, MoveResponse, ObjectId, Program, Size, Trace, TraceEvent};

/// One replayed round.
#[derive(Debug, Clone, Default)]
struct Round {
    /// Original ids to free at the round start.
    frees: Vec<u64>,
    /// Sizes to allocate, in order (paired with their original ids).
    allocs: Vec<(u64, u64)>,
}

/// A program that re-issues a recorded request stream.
#[derive(Debug)]
pub struct TraceWorkload {
    rounds: Vec<Round>,
    cursor: usize,
    /// Original id -> replay id, filled as placements arrive.
    remap: HashMap<u64, ObjectId>,
    /// Allocation order within the current round (original ids).
    pending: Vec<u64>,
    live_bound: u64,
}

impl TraceWorkload {
    /// Builds the workload from a trace.
    ///
    /// The live bound is computed from the replayed stream itself (frees
    /// land at round starts, so mid-round peaks may exceed the original
    /// program's bound slightly; the computed bound covers that).
    pub fn new(trace: &Trace) -> Self {
        let mut rounds: Vec<Round> = Vec::new();
        let mut sizes: HashMap<u64, u64> = HashMap::new();
        let mut deferred: Vec<u64> = Vec::new();
        let mut mid_round = false;
        for event in &trace.events {
            match *event {
                TraceEvent::RoundStart { .. } => {
                    mid_round = false;
                    rounds.push(Round {
                        frees: std::mem::take(&mut deferred),
                        allocs: Vec::new(),
                    });
                }
                TraceEvent::Placed { id, size, .. } => {
                    mid_round = true;
                    sizes.insert(id, size);
                    rounds
                        .last_mut()
                        .expect("trace begins with a round start")
                        .allocs
                        .push((id, size));
                }
                TraceEvent::Freed { id } => {
                    if mid_round {
                        // A move-triggered free inside the allocation
                        // phase: replay it at the next round boundary.
                        deferred.push(id);
                    } else {
                        rounds
                            .last_mut()
                            .expect("trace begins with a round start")
                            .frees
                            .push(id);
                    }
                }
                TraceEvent::Moved { .. } | TraceEvent::RoundEnd { .. } => {}
            }
        }
        if !deferred.is_empty() {
            rounds.push(Round {
                frees: deferred,
                allocs: Vec::new(),
            });
        }
        // Live profile under that schedule.
        let mut live = 0u64;
        let mut peak = 0u64;
        for round in &rounds {
            for id in &round.frees {
                live -= sizes[id];
            }
            for &(_, size) in &round.allocs {
                live += size;
                peak = peak.max(live);
            }
        }
        TraceWorkload {
            rounds,
            cursor: 0,
            remap: HashMap::new(),
            pending: Vec::new(),
            live_bound: peak.max(1),
        }
    }

    /// Number of rounds in the replay.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }
}

impl Program for TraceWorkload {
    fn name(&self) -> &str {
        "trace-replay"
    }

    fn live_bound(&self) -> Size {
        Size::new(self.live_bound)
    }

    fn frees(&mut self) -> Vec<ObjectId> {
        let Some(round) = self.rounds.get(self.cursor) else {
            return Vec::new();
        };
        self.pending = round.allocs.iter().map(|&(id, _)| id).collect();
        self.pending.reverse(); // pop() yields allocation order
        round
            .frees
            .iter()
            .filter_map(|orig| self.remap.remove(orig))
            .collect()
    }

    fn allocs(&mut self) -> Vec<Size> {
        self.rounds
            .get(self.cursor)
            .map(|r| r.allocs.iter().map(|&(_, s)| Size::new(s)).collect())
            .unwrap_or_default()
    }

    fn placed(&mut self, id: ObjectId, _addr: Addr, _size: Size) {
        let orig = self.pending.pop().expect("placement matches the plan");
        self.remap.insert(orig, id);
    }

    fn moved(&mut self, _id: ObjectId, _from: Addr, _to: Addr, _size: Size) -> MoveResponse {
        MoveResponse::Keep
    }

    fn round_done(&mut self) {
        self.cursor += 1;
    }

    fn finished(&self) -> bool {
        self.cursor >= self.rounds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChurnConfig, ChurnWorkload};
    use pcb_alloc::ManagerKind;
    use pcb_heap::{Execution, Heap, TraceRecorder};

    fn record_churn() -> Trace {
        let cfg = ChurnConfig::typical(1 << 12, 6);
        let mut exec = Execution::new(
            Heap::non_moving(),
            ChurnWorkload::new(cfg),
            ManagerKind::FirstFit
                .build(&pcb_heap::Params::new(cfg.m, cfg.log_n, 10).expect("valid")),
        );
        let mut rec = TraceRecorder::new(u64::MAX);
        exec.run_observed(&mut rec).expect("churn runs");
        rec.into_trace()
    }

    #[test]
    fn replay_preserves_the_request_stream() {
        let trace = record_churn();
        let workload = TraceWorkload::new(&trace);
        let placed_in_trace = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Placed { .. }))
            .count();
        let mut exec = Execution::new(
            Heap::non_moving(),
            workload,
            ManagerKind::FirstFit.build(&pcb_heap::Params::new(1 << 12, 6, 10).expect("valid")),
        );
        let report = exec.run().expect("replay runs");
        assert_eq!(report.objects_placed as usize, placed_in_trace);
    }

    #[test]
    fn cross_manager_replay_changes_the_outcome_not_the_stream() {
        let trace = record_churn();
        let mut heap_sizes = Vec::new();
        for kind in [
            ManagerKind::FirstFit,
            ManagerKind::Buddy,
            ManagerKind::Segregated,
            ManagerKind::Tlsf,
        ] {
            let workload = TraceWorkload::new(&trace);
            let placed_expected: u64 = trace
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Placed { .. }))
                .count() as u64;
            let mut exec = Execution::new(
                Heap::non_moving(),
                workload,
                kind.build(&pcb_heap::Params::new(1 << 12, 6, 10).expect("valid")),
            );
            let report = exec.run().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(report.objects_placed, placed_expected, "{kind}");
            heap_sizes.push(report.heap_size);
        }
        // Same stream, different placements: the outcomes differ somewhere.
        heap_sizes.dedup();
        assert!(
            heap_sizes.len() > 1,
            "managers should differ: {heap_sizes:?}"
        );
    }

    #[test]
    fn adversarial_trace_replays_against_other_managers() {
        // Record P_F vs first-fit, then replay the stream against buddy:
        // the stream is only adversarial against the manager it was
        // *adapted to*, so the replay may fragment less — but must run.
        use pcb_adversary::{PfConfig, PfProgram};
        let (m, log_n, c) = (1u64 << 12, 8u32, 10u64);
        let cfg = PfConfig::new(m, log_n, c).unwrap();
        let mut exec = Execution::new(
            Heap::new(c),
            PfProgram::new(cfg),
            ManagerKind::FirstFit.build(&pcb_heap::Params::new(m, log_n, c).expect("valid")),
        );
        let mut rec = TraceRecorder::new(c);
        let original = exec.run_observed(&mut rec).expect("P_F runs");
        let trace = rec.into_trace();

        let workload = TraceWorkload::new(&trace);
        let mut replay = Execution::new(
            Heap::non_moving(),
            workload,
            ManagerKind::Buddy.build(&pcb_heap::Params::new(m, log_n, c).expect("valid")),
        );
        let report = replay.run().expect("replay runs");
        assert!(report.heap_size > 0);
        assert!(original.heap_size > 0);
    }
}
