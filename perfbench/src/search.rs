//! `search-first-fit`: the exhaustive worst-case search at M = 12,
//! log₂n = 2, first-fit, on one thread. Deterministic: the seed is
//! accepted and ignored. It touches no heap, manager or program layer;
//! it is the control workload for simulator changes.

use std::path::PathBuf;
use std::time::Instant;

use partial_compaction::exhaustive::intern::Interner;
use partial_compaction::exhaustive::packed::PackedState;
use partial_compaction::exhaustive::{
    try_worst_case_observed, try_worst_case_resumable, SearchOutcome, SearchPolicy, SearchReport,
};
use partial_compaction::fleet::CheckpointOptions;
use partial_compaction::{Params, RunConfig};
use pcb_json::Json;

use crate::check::{self, Check};
use crate::ledger::Ledger;
use crate::probe::{median, ns_since, read_ns, secs_since};
use crate::report::Metric;
use crate::{repeat_for, timed_setup, Run, RunError, Samples, Stopwatch};

/// The search's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchSize {
    /// Live-space bound `M`, words.
    pub m: u64,
    /// `log₂` of the largest object.
    pub log_n: u32,
}

/// The measured size: M = 12, n = 4 (713 962 states).
pub const FULL: SearchSize = SearchSize { m: 12, log_n: 2 };

const POLICY: SearchPolicy = SearchPolicy::FirstFit;

/// Well above the measured size's reachable set.
const MAX_STATES: usize = 20_000_000;

/// The search's inputs are its parameters; building them takes
/// nanoseconds, so set-up is timed over batches of this many builds.
const SETUP_BATCH: usize = 10_000;

/// What one run starts from.
struct Inputs {
    params: Params,
    run: RunConfig,
}

fn setup(size: SearchSize) -> Result<Inputs, String> {
    // `c` plays no part in a non-moving search; any valid value will do.
    let params = Params::new(size.m, size.log_n, 10).map_err(|e| e.to_string())?;
    Ok(Inputs {
        params,
        run: RunConfig::default().with_threads(1),
    })
}

fn check(size: SearchSize, report: &SearchReport, check: &mut Check) {
    check.expect(report.worst.heap_size >= size.m, || {
        format!("worst case {} below M = {}", report.worst.heap_size, size.m)
    });
    if size == FULL {
        if let Some(pins) = check::pins("search-first-fit", None) {
            check.pinned_u64(
                &pins,
                &[
                    ("heap_size", report.worst.heap_size),
                    ("states", report.worst.states as u64),
                    ("levels", report.stats.levels as u64),
                ],
            );
        }
    }
}

/// The untraced run: repeated searches for `seconds`.
pub fn untraced(size: SearchSize, seconds: f64) -> Result<Run, RunError> {
    let mut run = Run::default();
    let mut samples = Samples::default();
    let mut first: Option<SearchReport> = None;
    repeat_for(&mut run, seconds, 3, |run| {
        run.attempted += 1;
        let inputs = timed_setup(5, SETUP_BATCH, || setup(size), &mut samples.setup_s)
            .map_err(RunError::Setup)?;
        let watch = Stopwatch::start()?;
        let report =
            try_worst_case_observed(inputs.params, POLICY, MAX_STATES, &inputs.run, |_| {});
        let times = watch.stop()?;
        match report {
            Ok(report) => {
                check(size, &report, &mut run.check);
                if let Some(first) = &first {
                    run.check.expect(first.worst == report.worst, || {
                        format!(
                            "repeated search differs: {:?} vs {:?}",
                            report.worst, first.worst
                        )
                    });
                }
                samples.push(times, 1.0, 1.0, report.worst.states as f64);
                first.get_or_insert(report);
            }
            Err(e) => run.fail(format!("search error: {e}")),
        }
        Ok(())
    })?;
    run.metrics = samples.metrics()?;
    Ok(run)
}

/// Number of successors the search generates from a state: one per
/// object size that still fits under M, one per live object to free.
fn successors(state: &PackedState, size: SearchSize, intervals: &mut Vec<(u64, u64)>) -> u64 {
    state.decode_into(intervals, POLICY.has_rover());
    let live: u64 = intervals.iter().map(|&(_, len)| len).sum();
    let allocs = (0..=size.log_n)
        .filter(|&k| live + (1u64 << k) <= size.m)
        .count();
    (allocs + intervals.len()) as u64
}

/// Parses the flat `[len, w0.., len, w0..]` payload array of a search
/// checkpoint.
fn payloads(json: &Json, key: &str) -> Result<Vec<PackedState>, String> {
    let items = json
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("checkpoint has no `{key}` array"))?;
    let word = |j: &Json| {
        j.as_u64()
            .and_then(|v| u16::try_from(v).ok())
            .ok_or_else(|| format!("non-u16 entry in `{key}`"))
    };
    let mut states = Vec::new();
    let mut buf = Vec::new();
    let mut i = 0;
    while i < items.len() {
        let len = usize::from(word(&items[i])?);
        let body = items
            .get(i + 1..i + 1 + len)
            .ok_or_else(|| format!("truncated payload in `{key}`"))?;
        buf.clear();
        for item in body {
            buf.push(word(item)?);
        }
        states.push(PackedState::from_payload(&buf));
        i += 1 + len;
    }
    Ok(states)
}

/// Interning costs, measured by re-inserting the finished search's
/// seen-set into a fresh [`Interner`] twice: all misses, then all hits.
struct InternCost {
    insert_new_ns: f64,
    insert_dup_ns: f64,
    /// Inserts the search made: every state once as new (the root at
    /// start-up included), every other successor as a duplicate.
    new_inserts: u64,
    dup_inserts: u64,
}

/// A scratch directory inside the working directory (the checkout),
/// named after the process and removed again when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = PathBuf::from(format!(".perfbench-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and ignored by git.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn intern_cost(
    size: SearchSize,
    inputs: &Inputs,
    expect: &SearchReport,
) -> Result<InternCost, String> {
    let scratch = Scratch::new()?;
    let path = scratch.0.join("search.ckpt");
    let opts = CheckpointOptions::new(&path).every(usize::MAX);
    let outcome = try_worst_case_resumable(inputs.params, POLICY, MAX_STATES, &inputs.run, &opts)
        .map_err(|e| e.to_string())?;
    match outcome {
        SearchOutcome::Complete(report) if report.worst == expect.worst => {}
        other => return Err(format!("checkpointed search differs: {other:?}")),
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading checkpoint: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing checkpoint: {e}"))?;
    drop(text);
    let seen = payloads(&json, "seen")?;
    drop(json);
    if seen.len() != expect.worst.states {
        return Err(format!(
            "checkpoint holds {} states, the search found {}",
            seen.len(),
            expect.worst.states
        ));
    }
    let mut interner = Interner::new();
    let start = Instant::now();
    let fresh = seen.iter().filter(|state| interner.insert(state)).count();
    let new_ns = ns_since(start);
    let start = Instant::now();
    let again = seen.iter().filter(|state| interner.insert(state)).count();
    let dup_ns = ns_since(start);
    if fresh != seen.len() || again != 0 {
        return Err(format!(
            "re-interning found {fresh} new then {again} new of {} states",
            seen.len()
        ));
    }
    let mut intervals = Vec::new();
    let generated: u64 = seen
        .iter()
        .map(|s| successors(s, size, &mut intervals))
        .sum();
    let states = seen.len() as u64;
    Ok(InternCost {
        insert_new_ns: new_ns as f64 / states as f64,
        insert_dup_ns: dup_ns as f64 / states as f64,
        new_inserts: states,
        dup_inserts: generated + 1 - states,
    })
}

/// The traced run: alternating untraced and level-timed searches for
/// `seconds`, then one checkpointed search whose seen-set is re-interned
/// to price interning.
pub fn traced(size: SearchSize, seconds: f64) -> Result<Run, RunError> {
    let mut run = Run::default();
    let mut ledgers: Vec<Ledger> = Vec::new();
    let inputs = setup(size).map_err(RunError::Setup)?;
    let mut last: Option<SearchReport> = None;
    // The only clock reads are one per level pulse: their cost is
    // reported, and too small to correct for.
    let clock_ns = read_ns();
    // The first search in a process also faults in its seen-set's pages;
    // run one unmeasured so every pair below compares like with like.
    try_worst_case_observed(inputs.params, POLICY, MAX_STATES, &inputs.run, |_| {})
        .map_err(|e| RunError::Measure(format!("warm-up search: {e}")))?;
    repeat_for(&mut run, seconds, 1, |run| {
        run.attempted += 1;
        let start = Instant::now();
        let untraced =
            try_worst_case_observed(inputs.params, POLICY, MAX_STATES, &inputs.run, |_| {});
        let untraced_s = secs_since(start);
        let mut stamps: Vec<Instant> = Vec::with_capacity(256);
        let start = Instant::now();
        let traced =
            try_worst_case_observed(inputs.params, POLICY, MAX_STATES, &inputs.run, |_| {
                stamps.push(Instant::now())
            });
        let traced_s = secs_since(start);
        let (untraced, traced) = match (untraced, traced) {
            (Ok(u), Ok(t)) => (u, t),
            (Err(e), _) | (_, Err(e)) => {
                run.fail(format!("search error: {e}"));
                return Ok(());
            }
        };
        check(size, &untraced, &mut run.check);
        run.check.expect(traced.worst == untraced.worst, || {
            format!(
                "traced result differs: {:?} vs {:?}",
                traced.worst, untraced.worst
            )
        });
        run.check.expect(stamps.len() == untraced.stats.levels, || {
            format!(
                "{} level pulses for {} levels",
                stamps.len(),
                untraced.stats.levels
            )
        });
        let mut level_ms = Vec::with_capacity(stamps.len());
        let mut prev = start;
        for &at in &stamps {
            level_ms.push(at.duration_since(prev).as_secs_f64() * 1e3);
            prev = at;
        }
        ledgers.push(Ledger {
            levels: stamps.len() as f64,
            level_p50_ms: median(&level_ms),
            level_max_ms: level_ms.iter().copied().fold(0.0, f64::max),
            levels_s: level_ms.iter().sum::<f64>() / 1e3,
            bytes_per_state: untraced.stats.resident_bytes as f64 / untraced.worst.states as f64,
            overhead_pct: 100.0 * (traced_s / untraced_s - 1.0),
            clock_ns,
            untraced_s,
            ..Ledger::default()
        });
        last = Some(untraced);
        Ok(())
    })?;
    if let Some(report) = &last {
        let cost = intern_cost(size, &inputs, report).map_err(RunError::Measure)?;
        for ledger in &mut ledgers {
            ledger.insert_new_ns = cost.insert_new_ns;
            ledger.insert_dup_ns = cost.insert_dup_ns;
            ledger.intern_s = (cost.new_inserts as f64 * cost.insert_new_ns
                + cost.dup_inserts as f64 * cost.insert_dup_ns)
                / 1e9;
        }
    }
    let metrics: Vec<Vec<Metric>> = ledgers.iter().map(Ledger::metrics).collect();
    run.finish_ledger(metrics);
    Ok(run)
}
