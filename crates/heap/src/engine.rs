//! The execution engine: drives a [`Program`] against a [`MemoryManager`]
//! through the round structure of Section 2.1 (de-allocation, compaction,
//! allocation), enforcing the model's rules as it goes:
//!
//! * every placement must land on free space (checked against the
//!   ground-truth [`SpaceMap`](crate::SpaceMap));
//! * every relocation is charged to the c-partial budget;
//! * the program must respect its live-space bound `M`;
//! * moves are reported to the program immediately, and the program may
//!   free moved objects on the spot (the ghost-object discipline of `P_F`).

use pcb_chaos::{splitmix64, FaultPlan, FaultSite};

use crate::error::ExecutionError;
use crate::event::{Event, Observer, Tick};
use crate::heap::{Heap, HeapStats};
use crate::manager::{AllocRequest, HeapOps, MemoryManager, MirrorCheck};
use crate::program::Program;
use crate::stats::StatSink;

/// Counts of chaos faults the engine actually injected (not merely
/// scheduled: a `mirror-flip` decision that found nothing to corrupt,
/// for example, is not counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosCounters {
    /// Allocation requests spuriously refused.
    pub alloc_refusals: u64,
    /// Mid-run compaction-budget cuts applied.
    pub budget_cuts: u64,
    /// Mirror corruptions planted in the manager.
    pub mirror_faults: u64,
}

/// Allocation-free numeric summary of an execution.
///
/// The fleet harness runs millions of tenant heaps and keeps only
/// O(shards) of aggregation state, so the per-tenant result must not
/// allocate: this is [`Report`] minus the program/manager name strings,
/// `Copy`, and extractable from a live [`Execution`] at any point via
/// [`Execution::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapSummary {
    /// The compaction bound `c` (`u64::MAX` encodes "non-moving").
    pub c: u64,
    /// The program's live-space bound `M` in words.
    pub live_bound: u64,
    /// Measured heap size `HS` in words (peak used span).
    pub heap_size: u64,
    /// Peak live words.
    pub peak_live: u64,
    /// `HS / M`: the waste factor the paper's bounds speak about.
    pub waste_factor: f64,
    /// Fraction of allocated words that were moved (≤ 1/c by construction).
    pub moved_fraction: f64,
    /// Rounds executed.
    pub rounds: u32,
    /// Objects placed.
    pub objects_placed: u64,
    /// Objects freed.
    pub objects_freed: u64,
    /// Objects moved.
    pub objects_moved: u64,
    /// Words allocated in total.
    pub words_placed: u64,
    /// Words moved in total.
    pub words_moved: u64,
    /// Hole words inside the span when `HS` was reached (external
    /// fragmentation; see [`Heap::external_waste`]).
    pub external_waste: u64,
    /// Words of moved-then-immediately-freed objects (the `P_F` ghost
    /// discipline; see [`Heap::ghost_words`]).
    pub ghost_words: u64,
    /// Words the manager holds that no request can use (internal
    /// fragmentation; see [`MemoryManager::internal_waste`]).
    pub internal_waste: u64,
}

impl HeapSummary {
    fn new<P: Program + ?Sized>(
        heap: &Heap,
        program: &P,
        rounds: u32,
        internal_waste: u64,
    ) -> Self {
        let stats: HeapStats = heap.stats();
        let m = program.live_bound().get();
        HeapSummary {
            c: heap.budget().c(),
            live_bound: m,
            heap_size: heap.heap_size().get(),
            peak_live: heap.peak_live().get(),
            waste_factor: if m == 0 {
                0.0
            } else {
                heap.heap_size().get() as f64 / m as f64
            },
            moved_fraction: heap.budget().moved_fraction(),
            rounds,
            objects_placed: stats.objects_placed,
            objects_freed: stats.objects_freed,
            objects_moved: stats.objects_moved,
            words_placed: stats.words_placed,
            words_moved: stats.words_moved,
            external_waste: heap.external_waste().get(),
            ghost_words: heap.ghost_words().get(),
            internal_waste,
        }
    }
}

/// Summary of a finished (or aborted) execution.
#[derive(Debug, Clone)]
pub struct Report {
    /// Program name.
    pub program: String,
    /// Manager name.
    pub manager: String,
    /// The compaction bound `c` (`u64::MAX` encodes "non-moving").
    pub c: u64,
    /// The program's live-space bound `M` in words.
    pub live_bound: u64,
    /// Measured heap size `HS` in words (peak used span).
    pub heap_size: u64,
    /// Peak live words.
    pub peak_live: u64,
    /// `HS / M`: the waste factor the paper's bounds speak about.
    pub waste_factor: f64,
    /// Fraction of allocated words that were moved (≤ 1/c by construction).
    pub moved_fraction: f64,
    /// Rounds executed.
    pub rounds: u32,
    /// Objects placed.
    pub objects_placed: u64,
    /// Objects freed.
    pub objects_freed: u64,
    /// Objects moved.
    pub objects_moved: u64,
    /// Words allocated in total.
    pub words_placed: u64,
    /// Words moved in total.
    pub words_moved: u64,
    /// Hole words inside the span when `HS` was reached (external
    /// fragmentation).
    pub external_waste: u64,
    /// Words of moved-then-immediately-freed objects.
    pub ghost_words: u64,
    /// Words the manager holds that no request can use (internal
    /// fragmentation).
    pub internal_waste: u64,
}

impl Report {
    fn new<P: Program + ?Sized, M: MemoryManager + ?Sized>(
        heap: &Heap,
        program: &P,
        manager: &M,
        rounds: u32,
    ) -> Self {
        let s = HeapSummary::new(heap, program, rounds, manager.internal_waste());
        Report {
            program: program.name().to_owned(),
            manager: manager.name().to_owned(),
            c: s.c,
            live_bound: s.live_bound,
            heap_size: s.heap_size,
            peak_live: s.peak_live,
            waste_factor: s.waste_factor,
            moved_fraction: s.moved_fraction,
            rounds: s.rounds,
            objects_placed: s.objects_placed,
            objects_freed: s.objects_freed,
            objects_moved: s.objects_moved,
            words_placed: s.words_placed,
            words_moved: s.words_moved,
            external_waste: s.external_waste,
            ghost_words: s.ghost_words,
            internal_waste: s.internal_waste,
        }
    }
}

impl pcb_json::ToJson for Report {
    fn to_json(&self) -> pcb_json::Json {
        use pcb_json::Json;
        Json::object([
            ("program", Json::from(self.program.as_str())),
            ("manager", Json::from(self.manager.as_str())),
            ("c", Json::from(self.c)),
            ("live_bound", Json::from(self.live_bound)),
            ("heap_size", Json::from(self.heap_size)),
            ("peak_live", Json::from(self.peak_live)),
            ("waste_factor", Json::from(self.waste_factor)),
            ("moved_fraction", Json::from(self.moved_fraction)),
            ("rounds", Json::from(self.rounds)),
            ("objects_placed", Json::from(self.objects_placed)),
            ("objects_freed", Json::from(self.objects_freed)),
            ("objects_moved", Json::from(self.objects_moved)),
            ("words_placed", Json::from(self.words_placed)),
            ("words_moved", Json::from(self.words_moved)),
            ("external_waste", Json::from(self.external_waste)),
            ("ghost_words", Json::from(self.ghost_words)),
            ("internal_waste", Json::from(self.internal_waste)),
        ])
    }
}

/// An observer that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _tick: Tick, _event: &Event) {}
}

/// Upper bound on rounds, a safety net against non-terminating programs
/// (the round counter is a `u32`).
const MAX_ROUNDS: u32 = u32::MAX;

/// Drives a program against a manager on a fresh heap.
#[derive(Debug)]
pub struct Execution<P, M> {
    heap: Heap,
    program: P,
    manager: M,
    round: u32,
    tick: Tick,
    /// Manager-side counters/histograms; `None` (the default) keeps the
    /// manager's reporting calls free.
    stats: Option<StatSink>,
    /// Deterministic fault schedule; the default (empty) plan costs one
    /// array load per decision point.
    chaos: FaultPlan,
    /// Cross-check the manager's mirror against the ground truth every
    /// this many rounds; 0 (the default) disables the check entirely.
    paranoia: u32,
    /// Allocation attempts seen so far — the index stream for the
    /// `alloc-refusal` fault site.
    alloc_attempts: u64,
    /// Round at which a mirror fault was planted, if any.
    mirror_fault_round: Option<u32>,
    /// Faults injected so far.
    chaos_counters: ChaosCounters,
}

impl<P: Program, M: MemoryManager> Execution<P, M> {
    /// Creates an execution of `program` against `manager` on `heap`.
    ///
    /// Use [`Heap::new`] for a c-partial heap or [`Heap::non_moving`] for a
    /// manager that never compacts.
    pub fn new(heap: Heap, program: P, manager: M) -> Self {
        Execution {
            heap,
            program,
            manager,
            round: 0,
            tick: 0,
            stats: None,
            chaos: FaultPlan::empty(),
            paranoia: 0,
            alloc_attempts: 0,
            mirror_fault_round: None,
            chaos_counters: ChaosCounters::default(),
        }
    }

    /// Attaches a deterministic fault schedule; returns `self` for
    /// chaining. The empty plan (the default) injects nothing and adds
    /// no per-event work beyond one array load per decision point.
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Cross-checks the manager's free-space mirror against the
    /// ground-truth [`SpaceMap`](crate::SpaceMap) every `every_rounds`
    /// rounds (paranoia mode), failing the execution with
    /// [`ExecutionError::MirrorDivergence`] on the first disagreement.
    /// `0` (the default) disables the check; returns `self` for
    /// chaining.
    pub fn with_paranoia(mut self, every_rounds: u32) -> Self {
        self.paranoia = every_rounds;
        self
    }

    /// Attaches a [`StatSink`] so the manager's `stat_add`/`stat_record`
    /// calls (placement probes, size histograms) are collected; returns
    /// `self` for chaining. Without this the calls are no-ops.
    pub fn with_stats(mut self) -> Self {
        self.stats = Some(StatSink::new());
        self
    }

    /// The collected manager statistics, if [`with_stats`](Self::with_stats)
    /// was enabled.
    pub fn stats(&self) -> Option<&StatSink> {
        self.stats.as_ref()
    }

    /// Detaches and returns the collected statistics.
    pub fn take_stats(&mut self) -> Option<StatSink> {
        self.stats.take()
    }

    /// The heap (read-only).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The program (read-only).
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The manager (read-only).
    pub fn manager(&self) -> &M {
        &self.manager
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u32 {
        self.round
    }

    /// Faults injected so far (all zero without a chaos plan).
    pub fn chaos_counters(&self) -> ChaosCounters {
        self.chaos_counters
    }

    /// The round at which a chaos mirror fault was planted, if one was.
    pub fn mirror_fault_round(&self) -> Option<u32> {
        self.mirror_fault_round
    }

    /// Consumes the execution, returning its parts for inspection.
    pub fn into_parts(self) -> (Heap, P, M) {
        (self.heap, self.program, self.manager)
    }

    /// Runs rounds until the program finishes, without observation. No
    /// observer is attached at all on this path: events are neither
    /// constructed nor dispatched, so the per-tick cost is zero.
    ///
    /// The run is wrapped in an `engine.run` span (with per-round phase
    /// spans inside); when span collection is disabled — the default —
    /// each span is a single relaxed atomic load.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecutionError`]; the execution state remains
    /// inspectable afterwards.
    pub fn run(&mut self) -> Result<Report, ExecutionError> {
        let _span = pcb_metrics::span!("engine.run");
        while !self.program.finished() && self.round < MAX_ROUNDS {
            self.step_round_inner(None)?;
        }
        self.publish_metrics();
        Ok(self.report())
    }

    /// Runs rounds until the program finishes and returns the
    /// allocation-free [`HeapSummary`] instead of a full [`Report`].
    ///
    /// This is the fleet hot path: identical execution to [`run`](Self::run)
    /// (same rounds, same placements, same budget enforcement), but the
    /// result carries no name strings, so a million tenant runs allocate
    /// nothing for their results.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecutionError`], like [`run`](Self::run).
    pub fn run_summary(&mut self) -> Result<HeapSummary, ExecutionError> {
        let _span = pcb_metrics::span!("engine.run");
        while !self.program.finished() && self.round < MAX_ROUNDS {
            self.step_round_inner(None)?;
        }
        self.publish_metrics();
        Ok(self.summary())
    }

    /// Runs rounds until the program finishes, reporting every event to
    /// `observer`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecutionError`].
    pub fn run_observed(&mut self, observer: &mut dyn Observer) -> Result<Report, ExecutionError> {
        let _span = pcb_metrics::span!("engine.run");
        while !self.program.finished() && self.round < MAX_ROUNDS {
            self.step_round_inner(Some(observer))?;
        }
        self.publish_metrics();
        Ok(self.report())
    }

    /// Publishes the run's totals into the `pcb-metrics` registry: engine
    /// operation counts, the waste attribution triple, chaos injections,
    /// and referee scan counters. A single relaxed load while the
    /// registry is disabled (the default). Values are exact integers
    /// derived from the simulated run, so snapshots folded from them stay
    /// byte-identical across thread counts.
    fn publish_metrics(&self) {
        if !pcb_metrics::enabled() {
            return;
        }
        use pcb_metrics::{add_counter, record_gauge_max};
        let stats = self.heap.stats();
        add_counter("engine.objects_placed", stats.objects_placed);
        add_counter("engine.objects_freed", stats.objects_freed);
        add_counter("engine.objects_moved", stats.objects_moved);
        add_counter("engine.words_placed", stats.words_placed);
        add_counter("engine.words_moved", stats.words_moved);
        add_counter("engine.rounds", u64::from(self.round));
        record_gauge_max("engine.heap_size_words", self.heap.heap_size().get());
        record_gauge_max("engine.peak_live_words", self.heap.peak_live().get());
        add_counter("waste.external_words", self.heap.external_waste().get());
        add_counter("waste.ghost_words", self.heap.ghost_words().get());
        add_counter("waste.internal_words", self.manager.internal_waste());
        if self.chaos_counters != ChaosCounters::default() {
            let chaos = &self.chaos_counters;
            add_counter("chaos.injected.alloc_refusals", chaos.alloc_refusals);
            add_counter("chaos.injected.budget_cuts", chaos.budget_cuts);
            add_counter("chaos.injected.mirror_faults", chaos.mirror_faults);
        }
        let c = self.heap.space().counters();
        record_gauge_max("space.words_scanned", c.words_scanned);
        record_gauge_max("space.summary_skips", c.summary_skips);
        record_gauge_max("space.slot_high_water", c.slot_high_water);
        record_gauge_max("space.slots_reused", c.slots_reused);
        // Manager-side counters collected this run share the same
        // exposition path, as do the manager's own index high-water
        // marks (the `manager.*` series).
        self.manager.publish_metrics();
        if let Some(sink) = &self.stats {
            sink.publish();
        }
    }

    /// Produces a report of the execution so far.
    pub fn report(&self) -> Report {
        Report::new(&self.heap, &self.program, &self.manager, self.round)
    }

    /// Produces the allocation-free numeric summary of the execution so
    /// far (a [`Report`] minus the name strings).
    pub fn summary(&self) -> HeapSummary {
        HeapSummary::new(
            &self.heap,
            &self.program,
            self.round,
            self.manager.internal_waste(),
        )
    }

    /// Executes one round: frees, then allocations.
    ///
    /// # Errors
    ///
    /// Fails on bad frees, failed or conflicting placements, and live-bound
    /// violations.
    pub fn step_round(&mut self, observer: &mut dyn Observer) -> Result<(), ExecutionError> {
        self.step_round_inner(Some(observer))
    }

    fn step_round_inner(
        &mut self,
        mut observer: Option<&mut dyn Observer>,
    ) -> Result<(), ExecutionError> {
        self.heap.set_round(self.round);
        Self::emit(&mut observer, &mut self.tick, || Event::RoundStart {
            round: self.round,
        });

        // Chaos: a mid-run budget cut doubles the bound `c` (halving
        // the move quota) of a bounded ledger. Free when the site's
        // rate is zero.
        if self
            .chaos
            .should_fire(FaultSite::BudgetCut, u64::from(self.round))
        {
            let c = self.heap.budget().c();
            if c != 0
                && c != u64::MAX
                && self
                    .heap
                    .tighten_budget(c.saturating_mul(2).min(u64::MAX - 1))
            {
                self.chaos_counters.budget_cuts += 1;
            }
        }

        // Phase 1: de-allocation. The span covers the program's free
        // decisions as well as the heap bookkeeping they trigger.
        let free_span = pcb_metrics::span!("engine.free");
        for id in self.program.frees() {
            let (addr, size) = self
                .heap
                .free(id)
                .map_err(|_| ExecutionError::BadFree(id))?;
            self.manager.note_free(id, addr, size);
            Self::emit(&mut observer, &mut self.tick, || Event::Freed {
                id,
                addr,
                size,
            });
        }
        drop(free_span);

        // Phases 2+3: compaction happens inside the manager's `place`, per
        // request, through budget-enforcing `HeapOps`. Relocations open
        // nested `engine.compact` spans, so the allocate span's self-time
        // is pure placement work.
        let alloc_span = pcb_metrics::span!("engine.alloc");
        for size in self.program.allocs() {
            // Chaos: a spurious refusal drops the request before the
            // manager sees it — the program simply never receives a
            // `placed` callback for it, as if the request had been
            // elided. The attempt index advances either way, so the
            // refusal pattern is independent of manager behavior.
            let attempt = self.alloc_attempts;
            self.alloc_attempts += 1;
            if self.chaos.should_fire(FaultSite::AllocRefusal, attempt) {
                self.chaos_counters.alloc_refusals += 1;
                continue;
            }
            let id = self.heap.fresh_id();
            let addr = {
                let mut ops = HeapOps {
                    heap: &mut self.heap,
                    program: &mut self.program,
                    observer: observer.as_deref_mut(),
                    tick: &mut self.tick,
                    stats: self.stats.as_mut(),
                };
                self.manager
                    .place(AllocRequest { id, size }, &mut ops)
                    .map_err(|e| ExecutionError::AllocationFailed {
                        size,
                        reason: e.reason,
                    })?
            };
            self.heap.place(id, addr, size)?;
            self.manager.note_place(id, addr, size);
            self.program.placed(id, addr, size);
            Self::emit(&mut observer, &mut self.tick, || Event::Placed {
                id,
                addr,
                size,
            });

            let live = self.heap.live_words();
            let bound = self.program.live_bound();
            if live > bound {
                return Err(ExecutionError::LiveSpaceExceeded { live, bound });
            }
        }
        drop(alloc_span);

        // Chaos: plant at most one mirror corruption per execution, at
        // the end of the round the schedule selects. The victim word is
        // derived from the plan's seed and the round, so the corruption
        // is identical across thread counts.
        if self.mirror_fault_round.is_none()
            && self
                .chaos
                .should_fire(FaultSite::MirrorFlip, u64::from(self.round))
        {
            let roll = splitmix64(self.chaos.seed() ^ u64::from(self.round));
            if self.manager.inject_mirror_fault(roll, self.heap.space()) {
                self.mirror_fault_round = Some(self.round);
                self.chaos_counters.mirror_faults += 1;
            }
        }

        // Paranoia: cross-check the manager's mirror against the
        // ground truth every `paranoia` rounds. An injected corruption
        // is therefore detected within `paranoia` rounds of being
        // planted; the error carries both rounds, hence the latency.
        if self.paranoia != 0 && (self.round + 1).is_multiple_of(self.paranoia) {
            let _span = pcb_metrics::span!("engine.paranoia");
            if let MirrorCheck::Divergent(detail) = self.manager.mirror_check(self.heap.space()) {
                return Err(ExecutionError::MirrorDivergence {
                    round: self.round,
                    injected_round: self.mirror_fault_round,
                    detail,
                });
            }
        }

        Self::emit(&mut observer, &mut self.tick, || Event::RoundEnd {
            round: self.round,
        });
        // Round-boundary sampling hook: collectors get read access to the
        // heap itself, not just the event stream. Ticks are unaffected, so
        // observed and unobserved runs still number events identically.
        if let Some(obs) = observer {
            let _span = pcb_metrics::span!("engine.observe");
            obs.on_round_end(self.round, &self.heap);
        }
        self.program.round_done();
        self.round += 1;
        Ok(())
    }

    /// Dispatches an event if an observer is attached; the event is not
    /// even constructed otherwise. The tick still advances so observed and
    /// unobserved runs number events identically.
    #[inline]
    fn emit(
        observer: &mut Option<&mut dyn Observer>,
        tick: &mut Tick,
        event: impl FnOnce() -> Event,
    ) {
        if let Some(obs) = observer {
            obs.on_event(*tick, &event());
        }
        *tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, Extent, Size};
    use crate::manager::PlacementError;
    use crate::object::ObjectId;
    use crate::program::ScriptedProgram;
    use crate::trace::{TraceEvent, TraceRecorder};

    /// A minimal bump allocator used only to test the engine itself.
    #[derive(Debug, Default)]
    struct Bump {
        top: u64,
    }

    impl MemoryManager for Bump {
        fn name(&self) -> &str {
            "bump"
        }
        fn place(
            &mut self,
            req: AllocRequest,
            _ops: &mut HeapOps<'_, '_>,
        ) -> Result<Addr, PlacementError> {
            let addr = Addr::new(self.top);
            self.top += req.size.get();
            Ok(addr)
        }
        fn note_free(&mut self, _id: ObjectId, _addr: Addr, _size: Size) {}
    }

    /// A deliberately broken manager that always returns address 0.
    #[derive(Debug, Default)]
    struct Clobber;

    impl MemoryManager for Clobber {
        fn name(&self) -> &str {
            "clobber"
        }
        fn place(
            &mut self,
            _req: AllocRequest,
            _ops: &mut HeapOps<'_, '_>,
        ) -> Result<Addr, PlacementError> {
            Ok(Addr::ZERO)
        }
        fn note_free(&mut self, _id: ObjectId, _addr: Addr, _size: Size) {}
    }

    #[test]
    fn bump_runs_script_and_reports() {
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [4, 4])
            .round([0], [8]);
        let mut exec = Execution::new(Heap::non_moving(), program, Bump::default());
        let mut rec = TraceRecorder::new(u64::MAX);
        let report = exec.run_observed(&mut rec).unwrap();
        assert_eq!(report.rounds, 2);
        assert_eq!(report.objects_placed, 3);
        assert_eq!(report.objects_freed, 1);
        assert_eq!(report.heap_size, 16, "bump never reuses space");
        assert_eq!(report.peak_live, 12);
        assert!((report.waste_factor - 0.16).abs() < 1e-12);
        let events = rec.into_trace().events;
        let count = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count();
        assert_eq!(count(|e| matches!(e, TraceEvent::Placed { .. })), 3);
        assert_eq!(count(|e| matches!(e, TraceEvent::RoundStart { .. })), 2);
    }

    #[test]
    fn summary_matches_report_field_for_field() {
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [4, 4])
            .round([0], [8]);
        let mut exec = Execution::new(Heap::non_moving(), program, Bump::default());
        let summary = exec.run_summary().unwrap();
        let report = exec.report();
        assert_eq!(summary, exec.summary());
        assert_eq!(summary.c, report.c);
        assert_eq!(summary.live_bound, report.live_bound);
        assert_eq!(summary.heap_size, report.heap_size);
        assert_eq!(summary.peak_live, report.peak_live);
        assert_eq!(summary.waste_factor, report.waste_factor);
        assert_eq!(summary.moved_fraction, report.moved_fraction);
        assert_eq!(summary.rounds, report.rounds);
        assert_eq!(summary.objects_placed, report.objects_placed);
        assert_eq!(summary.objects_freed, report.objects_freed);
        assert_eq!(summary.objects_moved, report.objects_moved);
        assert_eq!(summary.words_placed, report.words_placed);
        assert_eq!(summary.words_moved, report.words_moved);
        assert_eq!(summary.external_waste, report.external_waste);
        assert_eq!(summary.ghost_words, report.ghost_words);
        assert_eq!(summary.internal_waste, report.internal_waste);
    }

    #[test]
    fn overlapping_placement_is_caught() {
        let program = ScriptedProgram::new(Size::new(100)).round([], [4, 4]);
        let mut exec = Execution::new(Heap::non_moving(), program, Clobber);
        let err = exec.run().unwrap_err();
        assert!(matches!(err, ExecutionError::Heap(_)), "got {err}");
    }

    #[test]
    fn live_bound_violation_is_caught() {
        let program = ScriptedProgram::new(Size::new(7)).round([], [4, 4]);
        let mut exec = Execution::new(Heap::non_moving(), program, Bump::default());
        let err = exec.run().unwrap_err();
        assert!(matches!(err, ExecutionError::LiveSpaceExceeded { .. }));
    }

    #[test]
    fn bad_free_is_caught() {
        // Free index 0 twice: second round frees an already-freed object.
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [4])
            .round([0], [])
            .round([0], []);
        let mut exec = Execution::new(Heap::non_moving(), program, Bump::default());
        let err = exec.run().unwrap_err();
        assert!(matches!(err, ExecutionError::BadFree(_)));
    }

    #[test]
    fn empty_chaos_plan_changes_nothing() {
        let script = || {
            ScriptedProgram::new(Size::new(100))
                .round([], [4, 4])
                .round([0], [8])
        };
        let mut plain = Execution::new(Heap::non_moving(), script(), Bump::default());
        let mut chaotic = Execution::new(Heap::non_moving(), script(), Bump::default())
            .with_chaos(FaultPlan::new(99))
            .with_paranoia(1);
        let a = plain.run().unwrap();
        let b = chaotic.run().unwrap();
        assert_eq!(a.heap_size, b.heap_size);
        assert_eq!(a.objects_placed, b.objects_placed);
        assert_eq!(chaotic.chaos_counters(), ChaosCounters::default());
    }

    #[test]
    fn alloc_refusal_elides_requests_deterministically() {
        let plan = FaultPlan::new(7).with_rate(FaultSite::AllocRefusal, pcb_chaos::PPM / 2);
        let script = || ScriptedProgram::new(Size::new(1000)).round([], [4; 20]);
        let mut a = Execution::new(Heap::non_moving(), script(), Bump::default()).with_chaos(plan);
        let mut b = Execution::new(Heap::non_moving(), script(), Bump::default()).with_chaos(plan);
        let ra = a.run().unwrap();
        let rb = b.run().unwrap();
        assert_eq!(
            ra.objects_placed, rb.objects_placed,
            "refusals are deterministic"
        );
        assert!(ra.objects_placed < 20, "some requests were refused");
        assert_eq!(
            a.chaos_counters().alloc_refusals,
            20 - ra.objects_placed,
            "every elided request is counted"
        );
    }

    #[test]
    fn budget_cut_tightens_a_bounded_ledger() {
        let plan = FaultPlan::new(3).with_rate(FaultSite::BudgetCut, pcb_chaos::PPM);
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [4])
            .round([], [4]);
        let mut exec = Execution::new(Heap::new(2), program, Bump::default()).with_chaos(plan);
        exec.run().unwrap();
        assert!(exec.chaos_counters().budget_cuts >= 1);
        assert!(exec.heap().budget().c() > 2, "bound was tightened");

        // Non-moving heaps have no bound to cut.
        let program = ScriptedProgram::new(Size::new(100)).round([], [4]);
        let mut exec =
            Execution::new(Heap::non_moving(), program, Bump::default()).with_chaos(plan);
        exec.run().unwrap();
        assert_eq!(exec.chaos_counters().budget_cuts, 0);
    }

    #[test]
    fn paranoia_detects_an_injected_mirror_fault_within_cadence() {
        /// Bump allocator with a fake mirror: a corruption flag that
        /// `mirror_check` reports once planted.
        #[derive(Debug, Default)]
        struct Mirrored {
            top: u64,
            corrupt: bool,
        }
        impl MemoryManager for Mirrored {
            fn name(&self) -> &str {
                "mirrored"
            }
            fn place(
                &mut self,
                req: AllocRequest,
                _ops: &mut HeapOps<'_, '_>,
            ) -> Result<Addr, PlacementError> {
                let addr = Addr::new(self.top);
                self.top += req.size.get();
                Ok(addr)
            }
            fn note_free(&mut self, _id: ObjectId, _addr: Addr, _size: Size) {}
            fn mirror_check(&self, _space: &crate::space::SpaceMap) -> crate::MirrorCheck {
                if self.corrupt {
                    crate::MirrorCheck::Divergent("planted".into())
                } else {
                    crate::MirrorCheck::Clean
                }
            }
            fn inject_mirror_fault(&mut self, _roll: u64, _space: &crate::space::SpaceMap) -> bool {
                self.corrupt = true;
                true
            }
        }

        // Fire the flip on round 0 with certainty; paranoia every 2
        // rounds must detect it by round 1.
        let plan = FaultPlan::new(11).with_rate(FaultSite::MirrorFlip, pcb_chaos::PPM);
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [4])
            .round([], [4])
            .round([], [4])
            .round([], [4]);
        let mut exec = Execution::new(Heap::non_moving(), program, Mirrored::default())
            .with_chaos(plan)
            .with_paranoia(2);
        let err = exec.run().unwrap_err();
        match err {
            ExecutionError::MirrorDivergence {
                round,
                injected_round: Some(injected),
                ..
            } => {
                assert!(
                    round - injected < 2,
                    "latency {} >= cadence",
                    round - injected
                );
                assert_eq!(injected, 0);
            }
            other => panic!("expected MirrorDivergence, got {other}"),
        }
        assert_eq!(exec.chaos_counters().mirror_faults, 1);

        // Without paranoia the same fault goes unnoticed.
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [4])
            .round([], [4]);
        let mut exec =
            Execution::new(Heap::non_moving(), program, Mirrored::default()).with_chaos(plan);
        exec.run().unwrap();
        assert_eq!(exec.chaos_counters().mirror_faults, 1);
    }

    #[test]
    fn manager_can_compact_within_budget() {
        /// Bump allocator that slides the single live object to 0 before
        /// each placement, exercising HeapOps.
        #[derive(Debug, Default)]
        struct Slider {
            top: u64,
            last: Option<(ObjectId, u64)>,
        }
        impl MemoryManager for Slider {
            fn name(&self) -> &str {
                "slider"
            }
            fn place(
                &mut self,
                req: AllocRequest,
                ops: &mut HeapOps<'_, '_>,
            ) -> Result<Addr, PlacementError> {
                if let Some((id, size)) = self.last {
                    if ops.heap().is_live(id)
                        && ops.can_move(Size::new(size))
                        && ops.heap().record(id).unwrap().addr() != Addr::ZERO
                        && ops.heap().space().is_free(Extent::from_raw(0, size))
                    {
                        ops.relocate(id, Addr::ZERO).map_err(PlacementError::from)?;
                    }
                }
                let addr = Addr::new(self.top.max(ops.heap().space().frontier().get()));
                self.top = addr.get() + req.size.get();
                self.last = Some((req.id, req.size.get()));
                Ok(addr)
            }
            fn note_free(&mut self, _id: ObjectId, _addr: Addr, _size: Size) {}
        }

        let program = ScriptedProgram::new(Size::new(100))
            .round([], [4])
            .round([], [4]);
        let mut exec = Execution::new(Heap::new(2), program, Slider::default());
        let report = exec.run().unwrap();
        // First object allocated at 0; before the second allocation the
        // slider finds it already at 0 and does not move it.
        assert_eq!(report.objects_moved, 0);
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [1, 4]) // o0 at 0, o1 at 1
            .round([0], [2]); // free o0, slider moves o1 to 0 (budget: 5/2=2 < 4)
        let mut exec = Execution::new(Heap::new(2), program, Slider::default());
        let report = exec.run().unwrap();
        // o1 has size 4 but allowance at move time is floor(5/2)=2, so the
        // move is skipped via can_move; no error.
        assert_eq!(report.objects_moved, 0);
        assert_eq!(report.rounds, 2);
    }
}
