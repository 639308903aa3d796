//! Execution traces: record a run, save it, replay it.
//!
//! A [`Trace`] is the serialized event log of an execution. Replaying a
//! trace against the *ground-truth rules* re-validates it (no overlap, no
//! budget violation, frees of live objects only) without the original
//! program or manager — which makes traces portable regression artifacts:
//! the repository can pin an adversary's exact behaviour as a golden
//! file, and a refactor that changes any placement shows up as a trace
//! mismatch.

use core::fmt;
use std::collections::VecDeque;
use std::io::{self, Write};

use pcb_json::Json;

use crate::addr::{Addr, Size};
use crate::error::HeapError;
use crate::event::{Event, Observer, Tick};
use crate::heap::{Heap, ID_LIMIT};
use crate::object::ObjectId;
use crate::space::MAX_ADDR;

/// One serialized event. The JSON form is internally tagged as
/// `{"kind": "<snake_case variant>", ...fields}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Round boundary (start).
    RoundStart {
        /// Round index.
        round: u32,
    },
    /// Round boundary (end).
    RoundEnd {
        /// Round index.
        round: u32,
    },
    /// Placement.
    Placed {
        /// Object id (raw).
        id: u64,
        /// Address in words.
        addr: u64,
        /// Size in words.
        size: u64,
    },
    /// Free.
    Freed {
        /// Object id (raw).
        id: u64,
    },
    /// Relocation.
    Moved {
        /// Object id (raw).
        id: u64,
        /// Destination address in words.
        to: u64,
    },
}

impl From<&Event> for TraceEvent {
    fn from(e: &Event) -> Self {
        match *e {
            Event::RoundStart { round } => TraceEvent::RoundStart { round },
            Event::RoundEnd { round } => TraceEvent::RoundEnd { round },
            Event::Placed { id, addr, size } => TraceEvent::Placed {
                id: id.get(),
                addr: addr.get(),
                size: size.get(),
            },
            Event::Freed { id, .. } => TraceEvent::Freed { id: id.get() },
            Event::Moved { id, to, .. } => TraceEvent::Moved {
                id: id.get(),
                to: to.get(),
            },
        }
    }
}

impl TraceEvent {
    fn to_json(self) -> Json {
        match self {
            TraceEvent::RoundStart { round } => Json::object([
                ("kind", Json::from("round_start")),
                ("round", Json::from(round)),
            ]),
            TraceEvent::RoundEnd { round } => Json::object([
                ("kind", Json::from("round_end")),
                ("round", Json::from(round)),
            ]),
            TraceEvent::Placed { id, addr, size } => Json::object([
                ("kind", Json::from("placed")),
                ("id", Json::from(id)),
                ("addr", Json::from(addr)),
                ("size", Json::from(size)),
            ]),
            TraceEvent::Freed { id } => {
                Json::object([("kind", Json::from("freed")), ("id", Json::from(id))])
            }
            TraceEvent::Moved { id, to } => Json::object([
                ("kind", Json::from("moved")),
                ("id", Json::from(id)),
                ("to", Json::from(to)),
            ]),
        }
    }

    /// Writes the event as one compact JSON line, byte-identical to
    /// `to_json().to_string()` (keys in sorted order) but without building
    /// the intermediate `Json` tree — this is the per-event hot path of
    /// [`TraceWriter`], which sees every placement of a run.
    fn write_jsonl(self, out: &mut impl Write) -> io::Result<()> {
        match self {
            TraceEvent::RoundStart { round } => {
                writeln!(out, "{{\"kind\":\"round_start\",\"round\":{round}}}")
            }
            TraceEvent::RoundEnd { round } => {
                writeln!(out, "{{\"kind\":\"round_end\",\"round\":{round}}}")
            }
            TraceEvent::Placed { id, addr, size } => {
                writeln!(
                    out,
                    "{{\"addr\":{addr},\"id\":{id},\"kind\":\"placed\",\"size\":{size}}}"
                )
            }
            TraceEvent::Freed { id } => writeln!(out, "{{\"id\":{id},\"kind\":\"freed\"}}"),
            TraceEvent::Moved { id, to } => {
                writeln!(out, "{{\"id\":{id},\"kind\":\"moved\",\"to\":{to}}}")
            }
        }
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "event missing string field `kind`".to_string())?;
        let field = |name: &str| -> Result<u64, String> {
            value
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{kind}` event missing integer field `{name}`"))
        };
        let round = |name: &str| -> Result<u32, String> {
            field(name).and_then(|v| {
                u32::try_from(v).map_err(|_| format!("`{name}` out of range for u32"))
            })
        };
        match kind {
            "round_start" => Ok(TraceEvent::RoundStart {
                round: round("round")?,
            }),
            "round_end" => Ok(TraceEvent::RoundEnd {
                round: round("round")?,
            }),
            "placed" => Ok(TraceEvent::Placed {
                id: field("id")?,
                addr: field("addr")?,
                size: field("size")?,
            }),
            "freed" => Ok(TraceEvent::Freed { id: field("id")? }),
            "moved" => Ok(TraceEvent::Moved {
                id: field("id")?,
                to: field("to")?,
            }),
            other => Err(format!("unknown event kind `{other}`")),
        }
    }
}

/// A recorded execution.
///
/// ```
/// use pcb_heap::{Trace, TraceEvent};
/// let mut t = Trace::new(10);
/// t.events.push(TraceEvent::RoundStart { round: 0 });
/// t.events.push(TraceEvent::Placed { id: 0, addr: 0, size: 4 });
/// let heap = t.replay().expect("valid");
/// assert_eq!(heap.heap_size().get(), 4);
/// let back = Trace::from_json(&t.to_json()).unwrap();
/// assert_eq!(t, back);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The compaction bound the run was recorded under (`u64::MAX` for
    /// non-moving, 0 for unlimited).
    pub c: u64,
    /// The events in order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace for a given budget.
    pub fn new(c: u64) -> Self {
        Trace {
            c,
            events: Vec::new(),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the trace on a fresh heap, re-validating every operation
    /// against the ground-truth rules. Returns the final heap.
    ///
    /// # Errors
    ///
    /// Returns the first [`HeapError`] (overlap, budget violation, unknown
    /// object, an id or extent out of the heap's range), along with the
    /// index of the offending event.
    pub fn replay(&self) -> Result<Heap, (usize, HeapError)> {
        let mut heap = Heap::with_c(self.c);
        for (i, event) in self.events.iter().enumerate() {
            match *event {
                TraceEvent::RoundStart { round } => heap.set_round(round),
                TraceEvent::RoundEnd { .. } => {}
                TraceEvent::Placed { id, addr, size } => {
                    // The heap trusts its engine to keep ids and extents
                    // in range; a trace is untrusted input.
                    if id >= ID_LIMIT {
                        return Err((i, HeapError::IdOutOfRange(id)));
                    }
                    in_address_space(addr, size).map_err(|e| (i, e))?;
                    let id = ObjectId::from_raw(id);
                    // Fresh ids must never collide if the heap is used
                    // further after replay.
                    heap.skip_id(id);
                    heap.place(id, Addr::new(addr), Size::new(size))
                        .map_err(|e| (i, e))?;
                }
                TraceEvent::Freed { id } => {
                    heap.free(ObjectId::from_raw(id)).map_err(|e| (i, e))?;
                }
                TraceEvent::Moved { id, to } => {
                    let id = ObjectId::from_raw(id);
                    if let Some(record) = heap.record(id) {
                        in_address_space(to, record.size().get()).map_err(|e| (i, e))?;
                    }
                    heap.relocate(id, Addr::new(to)).map_err(|e| (i, e))?;
                }
            }
        }
        Ok(heap)
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        Json::object([
            ("c", Json::from(self.c)),
            (
                "events",
                Json::array(self.events.iter().map(|e| e.to_json())),
            ),
        ])
        .to_string()
    }

    /// Deserializes from the JSON Lines form produced by [`TraceWriter`]:
    /// a header line `{"c": N}` followed by one event object per line.
    ///
    /// # Errors
    ///
    /// Returns the parse error message of the first malformed line.
    pub fn from_jsonl(jsonl: &str) -> Result<Self, String> {
        let mut lines = jsonl.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| "empty trace stream".to_string())?;
        let c = Json::parse(header)
            .map_err(|e| format!("trace header: {e}"))?
            .get("c")
            .and_then(Json::as_u64)
            .ok_or_else(|| "trace header missing integer field `c`".to_string())?;
        let events = lines
            .map(|line| {
                Json::parse(line)
                    .map_err(|e| e.to_string())
                    .and_then(|v| TraceEvent::from_json(&v))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { c, events })
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error message.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let value = Json::parse(json).map_err(|e| e.to_string())?;
        let c = value
            .get("c")
            .and_then(Json::as_u64)
            .ok_or_else(|| "trace missing integer field `c`".to_string())?;
        let events = value
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| "trace missing array field `events`".to_string())?
            .iter()
            .map(TraceEvent::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { c, events })
    }
}

/// Rejects an extent that ends past the address space the heap maps.
fn in_address_space(addr: u64, size: u64) -> Result<(), HeapError> {
    match addr.checked_add(size) {
        Some(end) if end <= MAX_ADDR => Ok(()),
        _ => Err(HeapError::ExtentOutOfRange { addr, size }),
    }
}

/// An [`Observer`] that records a [`Trace`].
#[derive(Debug)]
pub struct TraceRecorder {
    trace: Trace,
}

impl TraceRecorder {
    /// Starts recording a run under compaction bound `c` (pass the same
    /// value the heap was built with).
    pub fn new(c: u64) -> Self {
        TraceRecorder {
            trace: Trace::new(c),
        }
    }

    /// Finishes recording.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Observer for TraceRecorder {
    fn on_event(&mut self, _tick: Tick, event: &Event) {
        self.trace.events.push(event.into());
    }
}

/// An [`Observer`] that streams a trace as JSON Lines instead of holding
/// the whole event log in memory: a header line `{"c": N}` followed by
/// one event object per line, replayable via [`Trace::from_jsonl`].
///
/// I/O errors are deferred: the observer callback cannot fail, so the
/// first error is stashed and surfaced by [`finish`](TraceWriter::finish)
/// (subsequent events are dropped once an error has occurred).
///
/// With [`ring`](TraceWriterBuilder::ring) the writer instead buffers
/// only the **last** `capacity` events and emits them at `finish` — a
/// flight-recorder mode for long runs where only the tail matters. A
/// truncated ring trace starts mid-run, so it documents behaviour but
/// no longer replays from an empty heap.
pub struct TraceWriter<W: Write> {
    out: W,
    c: u64,
    ring: Option<VecDeque<TraceEvent>>,
    capacity: usize,
    written: u64,
    dropped: u64,
    error: Option<io::Error>,
    chaos: pcb_chaos::FaultPlan,
}

impl<W: Write> TraceWriter<W> {
    /// Starts streaming a run under compaction bound `c` (pass the same
    /// value the heap was built with; `u64::MAX` for non-moving, 0 for
    /// unlimited). The header line is written immediately.
    #[allow(clippy::new_ret_no_self)] // entry point of the builder: new(out).ring(..).begin(c)
    pub fn new(out: W) -> TraceWriterBuilder<W> {
        TraceWriterBuilder {
            out,
            capacity: None,
            chaos: pcb_chaos::FaultPlan::empty(),
        }
    }

    fn start(mut out: W, c: u64, capacity: Option<usize>, chaos: pcb_chaos::FaultPlan) -> Self {
        let mut error = None;
        let ring = match capacity {
            Some(cap) => Some(VecDeque::with_capacity(cap.max(1))),
            None => {
                if let Err(e) = writeln!(out, "{}", Json::object([("c", Json::from(c))])) {
                    error = Some(e);
                }
                None
            }
        };
        TraceWriter {
            out,
            c,
            ring,
            capacity: capacity.unwrap_or(0).max(1),
            written: 0,
            dropped: 0,
            error,
            chaos,
        }
    }

    /// Events accepted so far (streamed or buffered).
    pub fn events_seen(&self) -> u64 {
        self.written
    }

    /// Events evicted from the ring buffer (always 0 in streaming mode).
    pub fn events_dropped(&self) -> u64 {
        self.dropped
    }

    /// Flushes (emitting the buffered tail in ring mode) and returns the
    /// underlying writer.
    ///
    /// # Errors
    ///
    /// Surfaces the first I/O error encountered, including any deferred
    /// from the observer callbacks.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if let Some(ring) = self.ring.take() {
            writeln!(self.out, "{}", Json::object([("c", Json::from(self.c))]))?;
            for event in ring {
                event.write_jsonl(&mut self.out)?;
            }
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Configures a [`TraceWriter`] before the header is committed.
#[derive(Debug)]
pub struct TraceWriterBuilder<W: Write> {
    out: W,
    capacity: Option<usize>,
    chaos: pcb_chaos::FaultPlan,
}

impl<W: Write> TraceWriterBuilder<W> {
    /// Keep only the last `capacity` events (flight-recorder mode) and
    /// write them at [`finish`](TraceWriter::finish) instead of streaming.
    pub fn ring(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Attaches a fault schedule whose `trace-io` site injects
    /// synthetic sink errors (indexed by event count); they flow
    /// through the writer's normal deferred-error path and surface at
    /// [`finish`](TraceWriter::finish). The empty plan injects nothing.
    pub fn chaos(mut self, plan: pcb_chaos::FaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Commits the configuration for a run under compaction bound `c`.
    pub fn begin(self, c: u64) -> TraceWriter<W> {
        TraceWriter::start(self.out, c, self.capacity, self.chaos)
    }
}

impl<W: Write> fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWriter")
            .field("c", &self.c)
            .field("ring", &self.ring.is_some())
            .field("events_seen", &self.written)
            .field("events_dropped", &self.dropped)
            .finish()
    }
}

impl<W: Write> Observer for TraceWriter<W> {
    fn on_event(&mut self, _tick: Tick, event: &Event) {
        if self.error.is_some() {
            return;
        }
        if self
            .chaos
            .should_fire(pcb_chaos::FaultSite::TraceIo, self.written)
        {
            self.error = Some(io::Error::other(format!(
                "injected trace-sink fault (chaos plan, event {})",
                self.written
            )));
            return;
        }
        let event = TraceEvent::from(event);
        self.written += 1;
        match &mut self.ring {
            Some(ring) => {
                if ring.len() == self.capacity {
                    ring.pop_front();
                    self.dropped += 1;
                }
                ring.push_back(event);
            }
            None => {
                if let Err(e) = event.write_jsonl(&mut self.out) {
                    self.error = Some(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Execution;
    use crate::manager::{AllocRequest, HeapOps, MemoryManager, PlacementError};
    use crate::program::ScriptedProgram;

    #[derive(Debug, Default)]
    struct Bump(u64);
    impl MemoryManager for Bump {
        fn name(&self) -> &str {
            "bump"
        }
        fn place(
            &mut self,
            req: AllocRequest,
            _ops: &mut HeapOps<'_, '_>,
        ) -> Result<Addr, PlacementError> {
            let a = Addr::new(self.0);
            self.0 += req.size.get();
            Ok(a)
        }
        fn note_free(&mut self, _: ObjectId, _: Addr, _: Size) {}
    }

    fn record_run() -> (Trace, u64) {
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [4, 4, 4])
            .round([1], [8]);
        let mut exec = Execution::new(Heap::non_moving(), program, Bump::default());
        let mut rec = TraceRecorder::new(u64::MAX);
        let report = exec.run_observed(&mut rec).unwrap();
        (rec.into_trace(), report.heap_size)
    }

    #[test]
    fn record_and_replay_agree() {
        let (trace, hs) = record_run();
        assert!(!trace.is_empty());
        let heap = trace.replay().expect("valid trace replays");
        assert_eq!(heap.heap_size().get(), hs);
        assert_eq!(heap.live_count(), 3);
    }

    #[test]
    fn json_round_trip() {
        let (trace, _) = record_run();
        let json = trace.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(trace, back);
        assert!(Trace::from_json("not json").is_err());
    }

    #[test]
    fn tampered_trace_is_rejected() {
        let (mut trace, _) = record_run();
        // Duplicate the first placement: replay must detect the overlap.
        let placed = trace
            .events
            .iter()
            .find(|e| matches!(e, TraceEvent::Placed { .. }))
            .copied()
            .unwrap();
        trace.events.push(match placed {
            TraceEvent::Placed { addr, size, .. } => TraceEvent::Placed {
                id: 999,
                addr,
                size,
            },
            _ => unreachable!(),
        });
        let err = trace.replay().unwrap_err();
        assert!(matches!(err.1, HeapError::Space(_)));
        assert_eq!(err.0, trace.events.len() - 1);
    }

    #[test]
    fn streamed_jsonl_matches_in_memory_trace() {
        let program = ScriptedProgram::new(Size::new(100))
            .round([], [4, 4, 4])
            .round([1], [8]);
        let mut exec = Execution::new(Heap::non_moving(), program, Bump::default());
        let mut rec = TraceRecorder::new(u64::MAX);
        let mut writer = TraceWriter::new(Vec::new()).begin(u64::MAX);
        let mut bus = crate::event::Observers::new();
        bus.attach(&mut rec).attach(&mut writer);
        exec.run_observed(&mut bus).unwrap();
        drop(bus);
        assert_eq!(writer.events_dropped(), 0);
        let bytes = writer.finish().unwrap();
        let streamed = Trace::from_jsonl(&String::from_utf8(bytes).unwrap()).unwrap();
        assert_eq!(streamed, rec.into_trace());
        assert!(streamed.replay().is_ok());
    }

    #[test]
    fn injected_trace_io_fault_surfaces_at_finish() {
        let plan = pcb_chaos::FaultPlan::new(5).with_rate(pcb_chaos::FaultSite::TraceIo, 200_000);
        let mut writer = TraceWriter::new(Vec::new()).chaos(plan).begin(u64::MAX);
        for round in 0..64u32 {
            writer.on_event(round as Tick, &Event::RoundStart { round });
        }
        let err = writer.finish().unwrap_err();
        assert!(
            err.to_string().contains("injected trace-sink fault"),
            "unexpected error: {err}"
        );

        // The empty plan leaves the stream intact.
        let mut clean = TraceWriter::new(Vec::new())
            .chaos(pcb_chaos::FaultPlan::empty())
            .begin(u64::MAX);
        for round in 0..64u32 {
            clean.on_event(round as Tick, &Event::RoundStart { round });
        }
        assert_eq!(clean.events_seen(), 64);
        assert!(clean.finish().is_ok());
    }

    #[test]
    fn ring_mode_keeps_only_the_tail() {
        let mut writer = TraceWriter::new(Vec::new()).ring(2).begin(u64::MAX);
        for round in 0..5u32 {
            writer.on_event(round as Tick, &Event::RoundStart { round });
        }
        assert_eq!(writer.events_seen(), 5);
        assert_eq!(writer.events_dropped(), 3);
        let bytes = writer.finish().unwrap();
        let tail = Trace::from_jsonl(&String::from_utf8(bytes).unwrap()).unwrap();
        assert_eq!(
            tail.events,
            vec![
                TraceEvent::RoundStart { round: 3 },
                TraceEvent::RoundStart { round: 4 }
            ]
        );
    }

    #[test]
    fn from_jsonl_rejects_malformed_streams() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("{\"not_c\":1}\n").is_err());
        assert!(Trace::from_jsonl("{\"c\":10}\nnot json\n").is_err());
        assert!(Trace::from_jsonl("{\"c\":10}\n{\"kind\":\"mystery\"}\n").is_err());
    }

    #[test]
    fn out_of_range_ids_and_extents_fail_replay_without_panicking() {
        let placed = |id, addr, size| TraceEvent::Placed { id, addr, size };
        let fails = |events: Vec<TraceEvent>| {
            let trace = Trace { c: 0, events };
            let (at, err) = trace.replay().unwrap_err();
            assert_eq!(at, trace.len() - 1, "{err}");
            err
        };
        assert_eq!(
            fails(vec![placed(100_000_000_000_000, 0, 1)]),
            HeapError::IdOutOfRange(100_000_000_000_000)
        );
        assert!(matches!(
            fails(vec![placed(0, (1 << 32) - 1, 2)]),
            HeapError::ExtentOutOfRange { .. }
        ));
        assert!(matches!(
            fails(vec![placed(0, u64::MAX, 1)]),
            HeapError::ExtentOutOfRange { .. }
        ));
        assert!(matches!(
            fails(vec![
                placed(0, 0, 4),
                TraceEvent::Moved {
                    id: 0,
                    to: (1 << 32) - 2
                }
            ]),
            HeapError::ExtentOutOfRange { .. }
        ));
        // Later fresh ids skip the replayed ones.
        let trace = Trace {
            c: 0,
            events: vec![placed(7, 0, 4)],
        };
        let mut heap = trace.replay().unwrap();
        assert_eq!(heap.fresh_id().get(), 8);
    }

    #[test]
    fn budget_violations_fail_replay() {
        let mut trace = Trace::new(10);
        trace.events.push(TraceEvent::Placed {
            id: 0,
            addr: 0,
            size: 10,
        });
        // Moving 10 words after allocating 10 violates c = 10.
        trace.events.push(TraceEvent::Moved { id: 0, to: 100 });
        let err = trace.replay().unwrap_err();
        assert!(matches!(err.1, HeapError::BudgetExceeded { .. }));
        // The same trace under an unlimited ledger replays fine.
        trace.c = 0;
        assert!(trace.replay().is_ok());
    }
}
