//! Layer timing from outside the program.
//!
//! Nothing here reaches inside the simulator. Programs and managers are
//! wrapped in decorators that implement the same public traits
//! ([`Program`], [`MemoryManager`]) and are handed to `Execution::new`
//! like any other pair. The referee ([`SpaceMap`]) is measured by
//! replaying the occupy/release stream the decorators saw against a
//! fresh map.
//!
//! # The lap clock
//!
//! A traced run is cut into consecutive intervals at every clock read:
//! each decorator reads the clock on entry and on exit, and the interval
//! since the previous read is charged to whichever layer was running —
//! the engine between calls, the manager inside `place`, the program
//! inside a `moved` callback nested in `place`. The intervals therefore
//! partition the traced wall, and the engine is measured, not inferred.
//!
//! Each interval also holds about one clock read of instrumentation.
//! Every exit reads the clock a second time, back to back, and the
//! difference samples that cost where it is paid, in the same cache and
//! frequency state as the measured call; the ledger subtracts
//! `intervals × mean read cost` from each layer.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use partial_compaction::heap::{
    Addr, AllocRequest, Extent, HeapOps, MemoryManager, MirrorCheck, MoveResponse, ObjectId,
    PlacementError, Program, Size, SpaceMap,
};

/// Nanoseconds since `start`.
#[inline]
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Seconds since `start`.
#[inline]
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The layers a traced heap run is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The engine loop and the heap's bookkeeping: everything outside a
    /// decorated call.
    Engine,
    /// `P_F` (`pcb-adversary`), alone or as a fleet tenant family.
    Adversary,
    /// Churn tenants (`pcb-workload`).
    Churn,
    /// Ramp tenants (`pcb-workload`).
    Ramp,
    /// Trace-replay tenants (`pcb-workload`).
    Replay,
    /// The memory manager (`pcb-alloc`).
    Manager,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

impl Layer {
    /// The program layer charged for a fleet tenant family, by its mixer
    /// name.
    pub fn for_family(kind: &str) -> Option<Layer> {
        match kind {
            "adversary" => Some(Layer::Adversary),
            "churn" => Some(Layer::Churn),
            "ramp" => Some(Layer::Ramp),
            "replay" => Some(Layer::Replay),
            _ => None,
        }
    }
}

/// Time charged to one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Nanoseconds charged.
    pub ns: u64,
    /// Intervals charged (each holds about one clock read).
    pub intervals: u64,
    /// Calls into the layer.
    pub calls: u64,
}

impl Busy {
    /// Folds another tally in.
    pub fn add(&mut self, other: Busy) {
        self.ns += other.ns;
        self.intervals += other.intervals;
        self.calls += other.calls;
    }
}

/// One referee operation as the engine performed it. A relocation is a
/// release followed by an occupy, both flagged as happening inside the
/// manager's `place` (through `HeapOps::relocate`).
#[derive(Debug, Clone, Copy)]
struct SpaceOp {
    addr: u64,
    id: u64,
    /// Object size for an occupy; 0 marks a release.
    size: u32,
    relocation: bool,
}

/// What the decorators of one execution (or one fleet pass) observed.
#[derive(Debug)]
pub struct Probe {
    /// Time per [`Layer`], indexed by `Layer as usize`.
    pub busy: [Busy; LAYERS],
    /// Sum of the back-to-back clock-read samples, ns.
    pub clock_ns: u64,
    /// Number of clock-read samples.
    pub clock_samples: u64,
    /// `place` calls.
    pub places: u64,
    /// Referee-log records written outside `place` (each costs one
    /// push, calibrated separately and charged to the engine).
    pub records: u64,
    /// Referee-log records written from inside `place` (charged to the
    /// manager).
    pub relocation_records: u64,
    current: Layer,
    last: Instant,
    /// Referee operations not yet replayed.
    log: Vec<SpaceOp>,
}

impl Probe {
    /// A fresh probe shared by one program and one manager decorator,
    /// with room for `records` referee-log records (reserved up front so
    /// the log never reallocates inside the timed run).
    pub fn shared(records: usize) -> SharedProbe {
        Rc::new(RefCell::new(Probe {
            busy: [Busy::default(); LAYERS],
            clock_ns: 0,
            clock_samples: 0,
            places: 0,
            records: 0,
            relocation_records: 0,
            current: Layer::Engine,
            last: Instant::now(),
            log: Vec::with_capacity(records),
        }))
    }

    /// Starts a traced stretch: the engine runs from now.
    pub fn start(&mut self) {
        self.current = Layer::Engine;
        self.last = Instant::now();
    }

    /// Ends a traced stretch, charging the time since the last read to
    /// the engine.
    pub fn stop(&mut self) {
        self.lap(Instant::now());
    }

    /// Charges the interval since the previous read to the running layer.
    #[inline]
    fn lap(&mut self, now: Instant) {
        let busy = &mut self.busy[self.current as usize];
        busy.ns += now.duration_since(self.last).as_nanos() as u64;
        busy.intervals += 1;
        self.last = now;
    }

    /// Enters `layer`; returns the layer to resume on exit.
    #[inline]
    fn enter(&mut self, layer: Layer) -> Layer {
        self.lap(Instant::now());
        self.busy[layer as usize].calls += 1;
        std::mem::replace(&mut self.current, layer)
    }

    /// Leaves the running layer, samples the cost of one clock read, and
    /// resumes `outer`.
    #[inline]
    fn exit(&mut self, outer: Layer) {
        self.lap(Instant::now());
        let sample = Instant::now();
        self.clock_ns += sample.duration_since(self.last).as_nanos() as u64;
        self.clock_samples += 1;
        self.last = sample;
        self.current = outer;
    }

    /// Mean cost of one clock read, sampled in place, ns.
    pub fn read_ns(&self) -> f64 {
        if self.clock_samples == 0 {
            0.0
        } else {
            self.clock_ns as f64 / self.clock_samples as f64
        }
    }

    fn record(&mut self, op: SpaceOp) {
        if op.relocation {
            self.relocation_records += 1;
        } else {
            self.records += 1;
        }
        self.log.push(op);
    }

    fn occupy(&mut self, id: ObjectId, addr: Addr, size: Size, relocation: bool) {
        let size = u32::try_from(size.get()).expect("simulated object sizes fit in 32 bits");
        self.record(SpaceOp {
            addr: addr.get(),
            id: id.get(),
            size,
            relocation,
        });
    }

    fn release(&mut self, addr: Addr, relocation: bool) {
        self.record(SpaceOp {
            addr: addr.get(),
            id: 0,
            size: 0,
            relocation,
        });
    }

    /// Replays the logged referee operations against a fresh
    /// [`SpaceMap`], timing maximal runs of relocation and engine
    /// operations separately, then clears the log.
    ///
    /// # Errors
    ///
    /// Fails if the replay hits a conflict the live run did not (the log
    /// would then not describe the run).
    pub fn replay_space(&mut self, into: &mut SpaceReplay) -> Result<(), String> {
        let mut map = SpaceMap::new();
        let log = std::mem::take(&mut self.log);
        let mut i = 0;
        while i < log.len() {
            let relocation = log[i].relocation;
            let start = Instant::now();
            while i < log.len() && log[i].relocation == relocation {
                let op = log[i];
                if op.size == 0 {
                    map.release(Addr::new(op.addr))
                        .map_err(|e| format!("space replay: {e}"))?;
                } else {
                    map.occupy(
                        ObjectId::from_raw(op.id),
                        Extent::from_raw(op.addr, u64::from(op.size)),
                    )
                    .map_err(|e| format!("space replay: {e}"))?;
                }
                i += 1;
            }
            let busy = if relocation {
                &mut into.relocation
            } else {
                &mut into.engine
            };
            busy.ns += ns_since(start);
            busy.intervals += 1;
        }
        into.ops += log.len() as u64;
        // Keep the allocation for the next tenant's log.
        self.log = log;
        self.log.clear();
        Ok(())
    }
}

/// A probe shared between the decorators of one execution.
pub type SharedProbe = Rc<RefCell<Probe>>;

/// Referee time from [`Probe::replay_space`]. Each timed segment is one
/// interval of two clock reads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpaceReplay {
    /// Occupy/release calls issued by the engine (`Heap::place`/`free`).
    pub engine: Busy,
    /// Occupy/release calls issued inside `place` by relocations.
    pub relocation: Busy,
    /// `SpaceMap` operations replayed.
    pub ops: u64,
}

/// Runs `call` as one timed call into `layer`.
#[inline]
fn timed<R>(probe: &SharedProbe, layer: Layer, call: impl FnOnce() -> R) -> R {
    let outer = probe.borrow_mut().enter(layer);
    let result = call();
    probe.borrow_mut().exit(outer);
    result
}

/// A [`Program`] charged to one program [`Layer`]. `name` and
/// `live_bound` are getters the engine reads for reports and bound
/// checks; they are not timed, so their (field-read) cost stays with the
/// engine.
#[derive(Debug)]
pub struct TimedProgram<P> {
    inner: P,
    layer: Layer,
    probe: SharedProbe,
}

impl<P: Program> TimedProgram<P> {
    /// Wraps `inner`, charging its time to `layer` in `probe`.
    pub fn new(inner: P, layer: Layer, probe: SharedProbe) -> Self {
        TimedProgram {
            inner,
            layer,
            probe,
        }
    }
}

impl<P: Program> Program for TimedProgram<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn live_bound(&self) -> Size {
        self.inner.live_bound()
    }

    fn frees(&mut self) -> Vec<ObjectId> {
        timed(&self.probe, self.layer, || self.inner.frees())
    }

    fn allocs(&mut self) -> Vec<Size> {
        timed(&self.probe, self.layer, || self.inner.allocs())
    }

    fn placed(&mut self, id: ObjectId, addr: Addr, size: Size) {
        timed(&self.probe, self.layer, || {
            self.inner.placed(id, addr, size)
        })
    }

    fn moved(&mut self, id: ObjectId, from: Addr, to: Addr, size: Size) -> MoveResponse {
        let response = timed(&self.probe, self.layer, || {
            self.inner.moved(id, from, to, size)
        });
        let mut probe = self.probe.borrow_mut();
        // `moved` is only ever called from `HeapOps::relocate`, which has
        // already released `from` and occupied `to`; a `P_F` ghost then
        // releases `to` again before `relocate` returns.
        probe.release(from, true);
        probe.occupy(id, to, size, true);
        if response == MoveResponse::FreeImmediately {
            probe.release(to, true);
        }
        response
    }

    fn round_done(&mut self) {
        timed(&self.probe, self.layer, || self.inner.round_done())
    }

    fn finished(&self) -> bool {
        timed(&self.probe, self.layer, || self.inner.finished())
    }
}

/// A [`MemoryManager`] charged to [`Layer::Manager`] for `place`,
/// `note_free` and `note_place` (program callbacks nested in `place` are
/// charged to the program), logging the referee operations the engine
/// performs around them. Diagnostics (`arena`, `mirror_check`, …) are
/// forwarded untimed.
#[derive(Debug)]
pub struct TimedManager<M> {
    inner: M,
    probe: SharedProbe,
}

impl<M: MemoryManager> TimedManager<M> {
    /// Wraps `inner`, charging its time to `probe`.
    pub fn new(inner: M, probe: SharedProbe) -> Self {
        TimedManager { inner, probe }
    }
}

impl<M: MemoryManager> MemoryManager for TimedManager<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(
        &mut self,
        req: AllocRequest,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let placed = timed(&self.probe, Layer::Manager, || self.inner.place(req, ops));
        self.probe.borrow_mut().places += 1;
        placed
    }

    fn note_free(&mut self, id: ObjectId, addr: Addr, size: Size) {
        timed(&self.probe, Layer::Manager, || {
            self.inner.note_free(id, addr, size)
        });
        self.probe.borrow_mut().release(addr, false);
    }

    fn note_place(&mut self, id: ObjectId, addr: Addr, size: Size) {
        timed(&self.probe, Layer::Manager, || {
            self.inner.note_place(id, addr, size)
        });
        self.probe.borrow_mut().occupy(id, addr, size, false);
    }

    fn arena(&self) -> Option<Extent> {
        self.inner.arena()
    }

    fn mirror_check(&self, space: &SpaceMap) -> MirrorCheck {
        self.inner.mirror_check(space)
    }

    fn inject_mirror_fault(&mut self, roll: u64, space: &SpaceMap) -> bool {
        self.inner.inject_mirror_fault(roll, space)
    }

    fn internal_waste(&self) -> u64 {
        self.inner.internal_waste()
    }

    fn publish_metrics(&self) {
        self.inner.publish_metrics()
    }
}

/// Median of a sample (the mean of the middle two for an even count); 0
/// for an empty one.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of a sample by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Cost of one referee-log record, ns: the median over three passes of
/// appending `records` entries to a log reserved up front, as the
/// decorators' logs are.
pub fn record_ns(records: u64) -> f64 {
    let mut passes = Vec::new();
    for _ in 0..3 {
        let probe = Probe::shared(records as usize);
        let mut probe = probe.borrow_mut();
        let start = Instant::now();
        for i in 0..records {
            probe.occupy(
                ObjectId::from_raw(i),
                Addr::new(i),
                Size::new(1),
                i % 2 == 0,
            );
        }
        passes.push(ns_since(start) as f64 / records.max(1) as f64);
        black_box(&probe.log);
    }
    median(&passes)
}

/// Cost of one clock read, ns, measured back to back in a tight loop
/// (for runs with too few timed calls to sample it in place).
pub fn read_ns() -> f64 {
    let reads = 1_000_000u32;
    let start = Instant::now();
    for _ in 0..reads {
        black_box(Instant::now());
    }
    ns_since(start) as f64 / f64::from(reads)
}
