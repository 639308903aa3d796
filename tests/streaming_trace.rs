//! Streaming traces at simulation scale: a JSONL trace written event by
//! event during a full adversarial run must carry exactly the same
//! information as the in-memory `Trace` — parse back equal and replay to
//! the same heap, as `pcb replay` does.

use partial_compaction::heap::{Execution, Heap, Trace, TraceRecorder};
use partial_compaction::{
    FaultPlan, ManagerKind, Observers, Params, PfConfig, PfProgram, TraceWriter,
};

fn run_both(kind: ManagerKind) -> (Trace, Trace, partial_compaction::heap::HeapSummary) {
    let (m, log_n, c) = (1u64 << 12, 8u32, 10u64);
    let params = Params::new(m, log_n, c).expect("valid");
    let cfg = PfConfig::new(m, log_n, c).expect("feasible");
    let mut exec = Execution::new(Heap::new(c), PfProgram::new(cfg), kind.build(&params));

    let mut recorder = TraceRecorder::new(c);
    let mut writer = TraceWriter::new(Vec::new(), c, FaultPlan::empty());
    let report = {
        let mut bus = Observers::new();
        bus.attach(&mut recorder).attach(&mut writer);
        exec.run_observed(&mut bus).expect("runs")
    };
    let jsonl = String::from_utf8(writer.finish().expect("stream finishes")).expect("utf8");
    let streamed = Trace::from_jsonl(&jsonl).expect("parses");
    (recorder.into_trace(), streamed, report)
}

#[test]
fn streamed_jsonl_equals_the_in_memory_trace_at_sim_scale() {
    for kind in [
        ManagerKind::FirstFit,
        ManagerKind::Buddy,
        ManagerKind::CompactingBp11,
    ] {
        let (in_memory, streamed, report) = run_both(kind);
        assert_eq!(in_memory, streamed, "{kind}: traces diverge");
        assert!(!streamed.events.is_empty(), "{kind}");
        let heap = streamed
            .replay()
            .unwrap_or_else(|(i, e)| panic!("{kind}: invalid at {i}: {e}"));
        assert_eq!(heap.heap_size().get(), report.heap_size, "{kind}");
        assert_eq!(
            heap.budget().moved_total(),
            report.words_moved as u128,
            "{kind}"
        );
    }
}

#[test]
fn jsonl_round_trips_through_serialization() {
    let (in_memory, streamed, _) = run_both(ManagerKind::BestFit);
    assert_eq!(in_memory, streamed);
    assert!(streamed.replay().is_ok());
}
