//! `pf-compacting`: the paper's `P_F` (full variant) against the
//! Theorem-2 page manager on one heap. Deterministic: the seed is
//! accepted and ignored.

use std::time::Instant;

use partial_compaction::heap::{Execution, Heap, HeapSummary, MemoryManager};
use partial_compaction::{ManagerKind, Params, PfConfig, PfProgram, PfVariant};

use crate::check::{self, Check};
use crate::ledger::{HeapPass, Ledger};
use crate::probe::{record_ns, Layer, Probe, SpaceReplay, TimedManager, TimedProgram};
use crate::report::Metric;
use crate::{repeat_for, timed_setup, Run, RunError, Samples, Stopwatch, Times};

/// The heap's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfSize {
    /// Live-space bound `M`, words.
    pub m: u64,
    /// `log₂` of the largest object.
    pub log_n: u32,
    /// Compaction bound `c`.
    pub c: u64,
}

/// The measured size: M = 2²¹ words, n = 2¹², c = 20.
pub const FULL: PfSize = PfSize {
    m: 1 << 21,
    log_n: 12,
    c: 20,
};

/// Building the inputs takes microseconds (the program and the heap
/// allocate lazily), so set-up is timed over batches of this many builds.
const SETUP_BATCH: usize = 200;

/// What one run starts from.
struct Inputs {
    heap: Heap,
    program: PfProgram,
    manager: Box<dyn MemoryManager>,
}

fn setup(size: PfSize) -> Result<Inputs, String> {
    let params = Params::new(size.m, size.log_n, size.c).map_err(|e| e.to_string())?;
    let cfg = PfConfig::new(size.m, size.log_n, size.c)?.with_variant(PfVariant::FULL);
    let manager = ManagerKind::PagesThm2
        .try_build(&params)
        .map_err(|e| e.to_string())?;
    Ok(Inputs {
        heap: Heap::new(size.c),
        program: PfProgram::new(cfg),
        manager,
    })
}

/// Runs one execution untraced; the execution is dropped inside the
/// timed region, as a user's run would drop it. Returns the summary and
/// the (wall, on-CPU) seconds.
fn run_untraced(inputs: Inputs) -> Result<(Result<HeapSummary, String>, Times), RunError> {
    let watch = Stopwatch::start()?;
    let summary = {
        let mut exec = Execution::new(inputs.heap, inputs.program, inputs.manager);
        exec.run_summary().map_err(|e| e.to_string())
    };
    Ok((summary, watch.stop()?))
}

/// Runs one execution with both layers decorated.
fn run_traced(inputs: Inputs, records: usize) -> (Result<HeapSummary, String>, HeapPass, Probe) {
    let probe = Probe::shared(records);
    let program = TimedProgram::new(inputs.program, Layer::Adversary, probe.clone());
    let manager = TimedManager::new(inputs.manager, probe.clone());
    let start = Instant::now();
    probe.borrow_mut().start();
    let summary = {
        let mut exec = Execution::new(inputs.heap, program, manager);
        exec.run_summary().map_err(|e| e.to_string())
    };
    probe.borrow_mut().stop();
    let pass = HeapPass {
        traced_ns: start.elapsed().as_nanos() as u64,
        ..HeapPass::default()
    };
    let probe = std::rc::Rc::try_unwrap(probe)
        .expect("the execution and its decorators are dropped")
        .into_inner();
    (summary, pass, probe)
}

fn check(size: PfSize, summary: &HeapSummary, check: &mut Check) {
    check.expect(summary.objects_placed > 0, || "nothing was placed".into());
    check.expect(summary.heap_size >= summary.peak_live, || {
        format!("HS {} < peak live {}", summary.heap_size, summary.peak_live)
    });
    check.expect(summary.moved_fraction <= 1.0 / size.c as f64, || {
        format!(
            "moved fraction {} breaks the 1/c budget",
            summary.moved_fraction
        )
    });
    if size == FULL {
        if let Some(pins) = check::pins("pf-compacting", None) {
            check.pinned_u64(
                &pins,
                &[
                    ("heap_size", summary.heap_size),
                    ("objects_placed", summary.objects_placed),
                ],
            );
            check.pinned_f64(
                &pins,
                &[
                    ("waste_factor", summary.waste_factor),
                    ("moved_fraction", summary.moved_fraction),
                ],
            );
        }
    }
}

/// The untraced run: repeated executions for `seconds`.
pub fn untraced(size: PfSize, seconds: f64) -> Result<Run, RunError> {
    let mut run = Run::default();
    let mut samples = Samples::default();
    let mut first: Option<HeapSummary> = None;
    repeat_for(&mut run, seconds, 3, |run| {
        run.attempted += 1;
        let inputs = timed_setup(5, SETUP_BATCH, || setup(size), &mut samples.setup_s)
            .map_err(RunError::Setup)?;
        let (summary, times) = run_untraced(inputs)?;
        match summary {
            Ok(summary) => {
                check(size, &summary, &mut run.check);
                same_as_first(&mut first, summary, &mut run.check);
                let events = summary.objects_placed + summary.objects_freed + summary.objects_moved;
                samples.push(times, events as f64, 1.0, 1.0);
            }
            Err(e) => run.fail(format!("run error: {e}")),
        }
        Ok(())
    })?;
    run.metrics = samples.metrics()?;
    Ok(run)
}

/// Records a mismatch if a repeated run's summary differs from the
/// first one (the workload is deterministic).
fn same_as_first(first: &mut Option<HeapSummary>, summary: HeapSummary, check: &mut Check) {
    match first {
        None => *first = Some(summary),
        Some(first) => check.expect(*first == summary, || {
            format!("repeated run differs: {summary:?} vs {first:?}")
        }),
    }
}

/// The traced run: alternating untraced and traced executions for
/// `seconds`; the ledger reports per-figure medians.
pub fn traced(size: PfSize, seconds: f64) -> Result<Run, RunError> {
    let mut run = Run::default();
    let mut ledgers: Vec<Vec<Metric>> = Vec::new();
    repeat_for(&mut run, seconds, 1, |run| {
        run.attempted += 1;
        let inputs = setup(size).map_err(RunError::Setup)?;
        let (untraced, (untraced_s, _)) = run_untraced(inputs)?;
        let untraced = match untraced {
            Ok(summary) => summary,
            Err(e) => {
                run.fail(format!("run error: {e}"));
                return Ok(());
            }
        };
        // One log record per occupy or release the referee will see.
        let records = untraced.objects_placed + untraced.objects_freed + 2 * untraced.objects_moved;
        let inputs = setup(size).map_err(RunError::Setup)?;
        let (traced, mut pass, mut probe) = run_traced(inputs, records as usize);
        let traced = match traced {
            Ok(summary) => summary,
            Err(e) => {
                run.fail(format!("traced run error: {e}"));
                return Ok(());
            }
        };
        check(size, &untraced, &mut run.check);
        run.check.expect(traced == untraced, || {
            format!("traced result differs: {traced:?} vs {untraced:?}")
        });
        let mut space = SpaceReplay::default();
        probe.replay_space(&mut space).map_err(RunError::Measure)?;
        pass.space = space;
        pass.absorb(&probe);
        let ledger = Ledger {
            heap: pass.layers(record_ns(records)),
            ghost_move_ratio: ratio(untraced.ghost_words, untraced.words_moved),
            moved_fraction: untraced.moved_fraction,
            overhead_pct: 100.0 * (pass.traced_ns as f64 / 1e9 / untraced_s - 1.0),
            clock_ns: pass.call_ns(),
            untraced_s,
            ..Ledger::default()
        };
        ledgers.push(ledger.metrics());
        Ok(())
    })?;
    run.finish_ledger(ledgers);
    Ok(run)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
