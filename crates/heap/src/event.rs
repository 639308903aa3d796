//! Execution trace events and observers.
//!
//! Every state change of the heap is reported as an [`Event`]. Observers
//! (metrics collectors, the adversary's potential-function tracker, debug
//! tracers) subscribe through [`Observer`] and receive events in program
//! order, timestamped by a monotone logical clock.

use core::fmt;

use crate::addr::{Addr, Size};
use crate::heap::Heap;
use crate::object::ObjectId;

/// A logical timestamp: the index of the event in the execution.
pub type Tick = u64;

/// A single state change in the execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A new round (the paper's "step") began.
    RoundStart {
        /// Round index.
        round: u32,
    },
    /// The current round ended.
    RoundEnd {
        /// Round index.
        round: u32,
    },
    /// An object was placed (allocation completed).
    Placed {
        /// The new object.
        id: ObjectId,
        /// Where it was placed.
        addr: Addr,
        /// Its size.
        size: Size,
    },
    /// An object was freed by the program.
    Freed {
        /// The freed object.
        id: ObjectId,
        /// Its address at the time of the free.
        addr: Addr,
        /// Its size.
        size: Size,
    },
    /// The manager relocated an object, spending compaction budget.
    Moved {
        /// The relocated object.
        id: ObjectId,
        /// Previous address.
        from: Addr,
        /// New address.
        to: Addr,
        /// Its size (= budget spent).
        size: Size,
    },
}

/// A sink for execution events.
pub trait Observer {
    /// Receives the `tick`-th event of the execution.
    fn on_event(&mut self, tick: Tick, event: &Event);

    /// Called once per round, right after the round's
    /// [`Event::RoundEnd`], with read access to the heap so collectors
    /// can sample derived state (fragmentation, budget allowance, …)
    /// without reconstructing it from the event stream. Default: nothing.
    fn on_round_end(&mut self, round: u32, heap: &Heap) {
        let _ = (round, heap);
    }
}

/// A composite observer: fans every event out to each attached observer
/// in attachment order, so one execution can feed a trace recorder, a
/// metrics collector, and a trace writer at once.
///
/// ```
/// use pcb_heap::{FaultPlan, Observers, Trace, TraceRecorder, TraceWriter};
///
/// let mut tracer = TraceRecorder::new(10);
/// let mut writer = TraceWriter::new(std::io::sink(), 10, FaultPlan::empty());
/// let mut bus = Observers::new();
/// bus.attach(&mut tracer).attach(&mut writer);
/// // … run an `Execution` with `run_observed(&mut bus)` …
/// # drop(bus);
/// # let _: Trace = tracer.into_trace();
/// ```
#[derive(Default)]
pub struct Observers<'a> {
    sinks: Vec<&'a mut dyn Observer>,
}

impl<'a> Observers<'a> {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an observer; events are delivered in attachment order.
    pub fn attach(&mut self, observer: &'a mut dyn Observer) -> &mut Self {
        self.sinks.push(observer);
        self
    }

    /// Whether no observer is attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl fmt::Debug for Observers<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observers")
            .field("len", &self.sinks.len())
            .finish()
    }
}

impl Observer for Observers<'_> {
    fn on_event(&mut self, tick: Tick, event: &Event) {
        for sink in &mut self.sinks {
            sink.on_event(tick, event);
        }
    }

    fn on_round_end(&mut self, round: u32, heap: &Heap) {
        for sink in &mut self.sinks {
            sink.on_round_end(round, heap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceRecorder};

    #[test]
    fn recorder_preserves_order_and_counts() {
        let mut r = TraceRecorder::new(0);
        let id = ObjectId::from_raw(1);
        r.on_event(0, &Event::RoundStart { round: 0 });
        r.on_event(
            1,
            &Event::Placed {
                id,
                addr: Addr::new(0),
                size: Size::new(4),
            },
        );
        r.on_event(
            2,
            &Event::Freed {
                id,
                addr: Addr::new(0),
                size: Size::new(4),
            },
        );
        assert_eq!(
            r.into_trace().events,
            [
                TraceEvent::RoundStart { round: 0 },
                TraceEvent::Placed {
                    id: 1,
                    addr: 0,
                    size: 4
                },
                TraceEvent::Freed { id: 1 },
            ]
        );
    }
}
