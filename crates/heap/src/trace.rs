//! Execution traces: record a run, save it, replay it.
//!
//! A trace is the event log of an execution as JSON Lines: a header
//! `{"c": N}` naming the compaction bound, then one event object per
//! line. Replaying it against the *ground-truth rules* re-validates it
//! (no overlap, no budget violation, frees of live objects only) without
//! the original program or manager — which makes traces portable
//! regression artifacts: the repository can pin an adversary's exact
//! behaviour as a golden file, and a refactor that changes any placement
//! shows up as a trace mismatch.
//!
//! Both directions stream. [`TraceWriter`] writes each event as it
//! happens and [`TraceReader`] reads one line at a time, so neither holds
//! a run in memory. Every reader goes through one line parser,
//! [`TraceEvent::parse`], and every replay through one step,
//! [`TraceEvent::apply`]: [`Trace::from_jsonl`] and [`Trace::replay`] are
//! folds over them, and `pcb replay` streams a file through the same two.

use core::fmt;
use std::io::{self, BufRead, Write};

use pcb_json::Json;

use crate::addr::{Addr, Size};
use crate::error::HeapError;
use crate::event::{Event, Observer, Tick};
use crate::heap::{Heap, ID_LIMIT};
use crate::object::ObjectId;
use crate::space::MAX_ADDR;

/// The longest line a trace may hold, in bytes. An event line is at most
/// about 100 bytes; the cap bounds a reader's memory whatever the input
/// (a whole-document JSON trace, say, is one line of the whole run).
const MAX_LINE: usize = 4096;

/// One trace event. Its line is the JSON object
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
    /// Writes the event as one compact JSON line, keys in sorted order,
    /// by direct formatting: this is the per-event hot path of
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

    /// Parses one event line of a trace (keys in any order).
    ///
    /// # Errors
    ///
    /// Says what is wrong with the line: not JSON, no `kind`, an unknown
    /// kind, or a missing or out-of-range field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let value = Json::parse(line).map_err(|e| e.to_string())?;
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
        let round = || -> Result<u32, String> {
            u32::try_from(field("round")?).map_err(|_| "`round` out of range for u32".to_string())
        };
        match kind {
            "round_start" => Ok(TraceEvent::RoundStart { round: round()? }),
            "round_end" => Ok(TraceEvent::RoundEnd { round: round()? }),
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

    /// Replays the event on `heap`, re-validating it against the
    /// ground-truth rules.
    ///
    /// # Errors
    ///
    /// The [`HeapError`] the event commits: an overlap, a budget
    /// violation, an unknown or already-live object, or an id or extent
    /// out of the heap's range.
    pub fn apply(self, heap: &mut Heap) -> Result<(), HeapError> {
        match self {
            TraceEvent::RoundStart { round } => heap.set_round(round),
            TraceEvent::RoundEnd { .. } => {}
            TraceEvent::Placed { id, addr, size } => {
                // The heap trusts its engine to keep ids and extents in
                // range; a trace is untrusted input.
                if id >= ID_LIMIT {
                    return Err(HeapError::IdOutOfRange(id));
                }
                in_address_space(addr, size)?;
                let id = ObjectId::from_raw(id);
                // Fresh ids must never collide if the heap is used
                // further after replay.
                heap.skip_id(id);
                heap.place(id, Addr::new(addr), Size::new(size))?;
            }
            TraceEvent::Freed { id } => {
                heap.free(ObjectId::from_raw(id))?;
            }
            TraceEvent::Moved { id, to } => {
                let id = ObjectId::from_raw(id);
                if let Some(record) = heap.record(id) {
                    in_address_space(to, record.size().get())?;
                }
                heap.relocate(id, Addr::new(to))?;
            }
        }
        Ok(())
    }
}

/// Rejects an extent that ends past the address space the heap maps.
fn in_address_space(addr: u64, size: u64) -> Result<(), HeapError> {
    match addr.checked_add(size) {
        Some(end) if end <= MAX_ADDR => Ok(()),
        _ => Err(HeapError::ExtentOutOfRange { addr, size }),
    }
}

/// A recorded execution, held in memory.
///
/// ```
/// use pcb_heap::{Trace, TraceEvent};
/// let t = Trace::from_jsonl("{\"c\": 10}\n{\"kind\":\"placed\",\"id\":0,\"addr\":0,\"size\":4}\n")?;
/// assert_eq!(t.events, [TraceEvent::Placed { id: 0, addr: 0, size: 4 }]);
/// let heap = t.replay().expect("valid");
/// assert_eq!(heap.heap_size().get(), 4);
/// # Ok::<(), pcb_heap::TraceError>(())
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

    /// Replays the trace on a fresh heap, event by event through
    /// [`TraceEvent::apply`]. Returns the final heap.
    ///
    /// # Errors
    ///
    /// Returns the first [`HeapError`] along with the index of the
    /// offending event.
    pub fn replay(&self) -> Result<Heap, (usize, HeapError)> {
        let mut heap = Heap::with_c(self.c);
        for (i, event) in self.events.iter().enumerate() {
            event.apply(&mut heap).map_err(|e| (i, e))?;
        }
        Ok(heap)
    }

    /// Parses the JSON Lines form written by [`TraceWriter`], through a
    /// [`TraceReader`].
    ///
    /// # Errors
    ///
    /// The [`TraceError`] of the header or of the first malformed line.
    pub fn from_jsonl(jsonl: &str) -> Result<Self, TraceError> {
        let reader = TraceReader::new(jsonl.as_bytes())?;
        Ok(Trace {
            c: reader.c(),
            events: reader.collect::<Result<_, _>>()?,
        })
    }
}

/// Why a trace could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The first non-blank line is missing or is not exactly `{"c": N}`.
    Header(String),
    /// A later line is not one event (see [`TraceEvent::parse`]).
    Event {
        /// The line's number, from 1.
        line: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Header(why) => write!(
                f,
                "not a JSONL trace ({why}): the first line must be exactly \
                 {{\"c\": N}}, then one event object per line"
            ),
            TraceError::Event { line, reason } => write!(f, "trace line {line}: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Reads a trace one line at a time: [`new`](TraceReader::new) reads the
/// header, and iterating yields the events, each parsed by
/// [`TraceEvent::parse`]. Blank lines are skipped. Memory stays bounded
/// by the longest line allowed, however long the run; iteration stops
/// after the first error.
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    buf: Vec<u8>,
    line: usize,
    c: u64,
    failed: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Reads the header line, which must be exactly `{"c": N}`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Header`] when the stream is empty or the header is
    /// anything else — a retired whole-document JSON trace included.
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut trace = TraceReader {
            reader,
            buf: Vec::new(),
            line: 0,
            c: 0,
            failed: false,
        };
        let header = match next_line(&mut trace.reader, &mut trace.buf, &mut trace.line) {
            Ok(Some(line)) => parse_header(line),
            Ok(None) => Err("the stream is empty".to_string()),
            Err(why) => Err(why),
        };
        trace.c = header.map_err(|why| {
            // A whole-document trace opens with `{"c":N,"events":[`.
            let retired = if trace.buf.windows(8).any(|w| w == b"\"events\"") {
                "; a whole-document JSON trace, a retired format"
            } else {
                ""
            };
            TraceError::Header(format!("{why}{retired}"))
        })?;
        Ok(trace)
    }

    /// The compaction bound the header names.
    pub fn c(&self) -> u64 {
        self.c
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let event = next_line(&mut self.reader, &mut self.buf, &mut self.line)
            .and_then(|line| line.map(TraceEvent::parse).transpose())
            .map_err(|reason| TraceError::Event {
                line: self.line,
                reason,
            })
            .transpose()?;
        self.failed = event.is_err();
        Some(event)
    }
}

/// Parses a header line: exactly `{"c": N}`.
fn parse_header(line: &str) -> Result<u64, String> {
    match Json::parse(line).map_err(|e| e.to_string())? {
        Json::Object(fields) if fields.keys().eq(["c"]) => fields["c"]
            .as_u64()
            .ok_or_else(|| "`c` is not an unsigned integer".to_string()),
        Json::Object(fields) => {
            let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
            Err(format!("the header has keys {}", keys.join(", ")))
        }
        _ => Err("the header is not an object".to_string()),
    }
}

/// Reads the next non-blank line of `reader` into `buf`, counting lines
/// in `line`; `Ok(None)` at the end of the stream.
fn next_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    line: &mut usize,
) -> Result<Option<&'b str>, String> {
    loop {
        buf.clear();
        let read = io::Read::take(&mut *reader, MAX_LINE as u64 + 1)
            .read_until(b'\n', buf)
            .map_err(|e| format!("read error: {e}"))?;
        if read == 0 {
            return Ok(None);
        }
        *line += 1;
        if !buf.trim_ascii().is_empty() {
            break;
        }
    }
    if buf.len() > MAX_LINE && buf.last() != Some(&b'\n') {
        return Err(format!("longer than {MAX_LINE} bytes"));
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|e| format!("not UTF-8: {e}"))
}

/// An [`Observer`] that holds a run's [`Trace`] in memory.
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

/// An [`Observer`] that streams a trace to `out` as it happens: the header
/// line `{"c": N}`, then one event object per line, readable by
/// [`TraceReader`].
///
/// I/O errors are deferred: the observer callback cannot fail, so the
/// first error is stashed and surfaced by [`finish`](TraceWriter::finish)
/// (subsequent events are dropped once an error has occurred).
pub struct TraceWriter<W: Write> {
    out: W,
    written: u64,
    error: Option<io::Error>,
    chaos: pcb_chaos::FaultPlan,
}

impl<W: Write> TraceWriter<W> {
    /// Starts streaming a run under compaction bound `c` (pass the same
    /// value the heap was built with; `u64::MAX` for non-moving, 0 for
    /// unlimited) and writes the header line. The `trace-io` site of
    /// `chaos` injects synthetic sink errors (indexed by event count)
    /// through the deferred-error path; the empty plan injects nothing.
    pub fn new(mut out: W, c: u64, chaos: pcb_chaos::FaultPlan) -> Self {
        let error = writeln!(out, "{{\"c\":{c}}}").err();
        TraceWriter {
            out,
            written: 0,
            error,
            chaos,
        }
    }

    /// Events written so far.
    pub fn events_seen(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Surfaces the first I/O error encountered, including any deferred
    /// from the observer callbacks.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWriter")
            .field("events_seen", &self.written)
            .field("failed", &self.error.is_some())
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
        self.written += 1;
        if let Err(e) = TraceEvent::from(event).write_jsonl(&mut self.out) {
            self.error = Some(e);
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
    fn jsonl_round_trips_every_event_variant() {
        let events = [
            TraceEvent::RoundStart { round: u32::MAX },
            TraceEvent::Placed {
                id: 7,
                addr: u64::MAX,
                size: 3,
            },
            TraceEvent::Moved { id: 7, to: 12 },
            TraceEvent::Freed { id: 7 },
            TraceEvent::RoundEnd { round: 0 },
        ];
        let mut jsonl = b"{\"c\":10}\n".to_vec();
        for event in events {
            event.write_jsonl(&mut jsonl).unwrap();
        }
        let back = Trace::from_jsonl(std::str::from_utf8(&jsonl).unwrap()).unwrap();
        assert_eq!(back.c, 10);
        assert_eq!(back.events, events);
        for (line, event) in jsonl.split(|&b| b == b'\n').skip(1).zip(events) {
            assert_eq!(
                TraceEvent::parse(std::str::from_utf8(line).unwrap()),
                Ok(event)
            );
        }
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
        let mut writer = TraceWriter::new(Vec::new(), u64::MAX, pcb_chaos::FaultPlan::empty());
        let mut bus = crate::event::Observers::new();
        bus.attach(&mut rec).attach(&mut writer);
        exec.run_observed(&mut bus).unwrap();
        drop(bus);
        let bytes = writer.finish().unwrap();
        let streamed = Trace::from_jsonl(&String::from_utf8(bytes).unwrap()).unwrap();
        assert_eq!(streamed, rec.into_trace());
        assert!(streamed.replay().is_ok());
    }

    #[test]
    fn injected_trace_io_fault_surfaces_at_finish() {
        let plan = pcb_chaos::FaultPlan::new(5).with_rate(pcb_chaos::FaultSite::TraceIo, 200_000);
        let mut writer = TraceWriter::new(Vec::new(), u64::MAX, plan);
        for round in 0..64u32 {
            writer.on_event(round as Tick, &Event::RoundStart { round });
        }
        let err = writer.finish().unwrap_err();
        assert!(
            err.to_string().contains("injected trace-sink fault"),
            "unexpected error: {err}"
        );

        // The empty plan leaves the stream intact.
        let mut clean = TraceWriter::new(Vec::new(), u64::MAX, pcb_chaos::FaultPlan::empty());
        for round in 0..64u32 {
            clean.on_event(round as Tick, &Event::RoundStart { round });
        }
        assert_eq!(clean.events_seen(), 64);
        assert!(clean.finish().is_ok());
    }

    #[test]
    fn from_jsonl_rejects_malformed_streams() {
        let header = |jsonl: &str| match Trace::from_jsonl(jsonl) {
            Err(TraceError::Header(why)) => why,
            other => panic!("{jsonl}: {other:?}"),
        };
        assert_eq!(header(""), "the stream is empty");
        assert_eq!(header("{\"not_c\":1}\n"), "the header has keys not_c");
        assert_eq!(header("{\"c\":1,\"x\":2}\n"), "the header has keys c, x");
        assert_eq!(header("{\"c\":-1}\n"), "`c` is not an unsigned integer");
        assert!(header("[10]\n").contains("not an object"));
        // A retired whole-document trace is named, short or long.
        let document = |n: usize| {
            let event = "{\"kind\":\"round_start\",\"round\":0}";
            format!("{{\"c\":0,\"events\":[{}]}}", vec![event; n].join(","))
        };
        for n in [1, 1000] {
            assert!(header(&document(n)).ends_with("a retired format"), "{n}");
        }
        assert!(header(&document(1000)).starts_with("longer than 4096 bytes"));
        let event = |jsonl: &str| match Trace::from_jsonl(jsonl) {
            Err(TraceError::Event { line, reason }) => (line, reason),
            other => panic!("{jsonl}: {other:?}"),
        };
        assert_eq!(event("{\"c\":10}\n\nnot json\n").0, 3);
        assert_eq!(
            event("{\"c\":10}\n{\"kind\":\"mystery\"}\n"),
            (2, "unknown event kind `mystery`".to_string())
        );
        // Iteration stops at the first bad line.
        let jsonl = "{\"c\":10}\nnot json\n{\"kind\":\"freed\",\"id\":0}\n";
        let mut reader = TraceReader::new(jsonl.as_bytes()).unwrap();
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
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
