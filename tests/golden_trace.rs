//! Determinism and regression pinning via execution traces.
//!
//! The simulator is fully deterministic, so a recorded trace of a known
//! configuration is a behavioural fingerprint: if a refactor changes any
//! placement, free, or move, these tests catch it. The pinned constants
//! were produced by the current implementation; an *intentional*
//! behaviour change should update them consciously.

use partial_compaction::heap::{Execution, Heap, TraceRecorder};
use partial_compaction::{ManagerKind, Params, PfConfig, PfProgram};

fn record(
    kind: ManagerKind,
) -> (
    partial_compaction::heap::Trace,
    partial_compaction::heap::HeapSummary,
) {
    let (m, log_n, c) = (1u64 << 12, 8u32, 10u64);
    let cfg = PfConfig::new(m, log_n, c).expect("feasible");
    let params = Params::new(m, log_n, c).expect("valid");
    let mut exec = Execution::new(Heap::new(c), PfProgram::new(cfg), kind.build(&params));
    let mut rec = TraceRecorder::new(c);
    let report = exec.run_observed(&mut rec).expect("runs");
    (rec.into_trace(), report)
}

#[test]
fn identical_runs_produce_identical_traces() {
    let (a, ra) = record(ManagerKind::FirstFit);
    let (b, rb) = record(ManagerKind::FirstFit);
    assert_eq!(a, b, "simulation must be deterministic");
    assert_eq!(ra.heap_size, rb.heap_size);
}

#[test]
fn recorded_traces_replay_to_the_same_heap() {
    for kind in [
        ManagerKind::FirstFit,
        ManagerKind::Buddy,
        ManagerKind::CompactingBp11,
        ManagerKind::PagesThm2,
    ] {
        let (trace, report) = record(kind);
        let heap = trace.replay().unwrap_or_else(|(i, e)| {
            panic!("{kind}: invalid at {i}: {e}");
        });
        assert_eq!(heap.heap_size().get(), report.heap_size, "{kind}");
        assert_eq!(
            heap.budget().moved_total(),
            report.words_moved as u128,
            "{kind}"
        );
    }
}

#[test]
fn checked_in_golden_trace_still_matches_the_implementation() {
    // tests/golden/pf_vs_first_fit.jsonl was recorded with
    //   pcb record ... --program pf --manager first-fit --m 4096 --log-n 8 --c 10
    // If a change to the adversary or the allocator alters ANY placement,
    // this comparison fails — update the artifact consciously.
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/pf_vs_first_fit.jsonl"
    ))
    .expect("golden trace present");
    let golden = partial_compaction::heap::Trace::from_jsonl(&json).expect("parses");
    // 1. The golden trace is valid under the budget rules.
    let heap = golden.replay().expect("golden trace replays");
    assert_eq!(heap.heap_size().get(), 7661, "pinned HS of the golden run");
    // 2. Re-running the same configuration reproduces it event for event.
    let (m, log_n, c) = (4096u64, 8u32, 10u64);
    let cfg = PfConfig::new(m, log_n, c).expect("feasible");
    let mut exec = Execution::new(
        Heap::new(c),
        PfProgram::new(cfg),
        ManagerKind::FirstFit.build(&Params::new(m, log_n, c).expect("valid")),
    );
    let mut rec = TraceRecorder::new(c);
    exec.run_observed(&mut rec).expect("runs");
    assert_eq!(
        rec.into_trace(),
        golden,
        "behaviour drifted from the golden trace"
    );
}

#[test]
fn different_managers_produce_different_traces() {
    let (ff, _) = record(ManagerKind::FirstFit);
    let (buddy, _) = record(ManagerKind::Buddy);
    assert_ne!(ff, buddy, "policies must be observably different");
}
