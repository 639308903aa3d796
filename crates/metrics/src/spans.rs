//! Span collection: a process-global, thread-aware collector of timed
//! spans — where the wall clock goes inside the engine (`Execution::run`
//! phases, `par_map` shard lifetimes, exhaustive-search BFS levels).
//!
//! Design goals, in order:
//!
//! 1. **Disabled means free.** Instrumentation stays compiled into release
//!    binaries, so the disabled path must cost nothing measurable: one
//!    relaxed atomic load and a branch per [`SpanGuard::enter`], no clock
//!    read, no allocation, no locking.
//! 2. **Enabled means cheap.** Open spans live on a thread-local stack;
//!    finished spans append to a thread-local buffer that flushes to the
//!    global sink in large batches, so worker threads never contend on a
//!    lock in their hot loop.
//! 3. **Threads are tracks.** A thread's track is its thread index,
//!    assigned when it first opens a span, and becomes the `tid` lane in
//!    the Chrome trace export, so `par_map` shard lifetimes render as
//!    parallel lanes.
//!
//! ```
//! use pcb_metrics::spans;
//!
//! spans::enable();
//! {
//!     let _outer = pcb_metrics::span!("outer");
//!     let _inner = pcb_metrics::span!("inner");
//! } // guards drop here, recording both spans
//! let trace = spans::take_trace();
//! assert_eq!(trace.len(), 2);
//!
//! // Chrome trace-event JSON, ready for Perfetto:
//! let doc = pcb_json::ToJson::to_json(&trace).to_string();
//! assert!(doc.contains("traceEvents"));
//!
//! // Aggregate view:
//! let profile = spans::Profile::from_trace(&trace);
//! assert_eq!(profile.rows[0].count, 1);
//! # spans::reset();
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use crate::profile::{Profile, ProfileRow};

/// Spans held in a thread's local buffer before a batched flush.
const FLUSH_THRESHOLD: usize = 16 * 1024;

/// Hard cap on retained finished spans, a memory safety net for very long
/// traced runs; beyond it spans are counted in [`Trace::dropped`] instead
/// of stored.
const MAX_RETAINED: usize = 4_000_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// The next thread's track: each thread takes one index, in the order
/// threads first open a span.
static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);

struct Global {
    spans: Vec<SpanRecord>,
    tracks: Vec<TrackInfo>,
}

static GLOBAL: Mutex<Global> = Mutex::new(Global {
    spans: Vec::new(),
    tracks: Vec::new(),
});

/// All timestamps are nanoseconds since the first clock read in the
/// process, so every track shares one time base.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span collection on. Guards entered while disabled stay inert
/// even if collection is enabled before they drop.
pub fn enable() {
    epoch(); // Pin the time base before the first span.
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span collection off. Spans already open keep recording so the
/// stack discipline stays balanced.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether span collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The phase name given to [`SpanGuard::enter`].
    pub name: &'static str,
    /// Track (thread lane) the span ran on.
    pub track: u32,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Time spent inside child spans on the same track, for self-time.
    pub child_ns: u64,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: u16,
}

impl SpanRecord {
    /// Duration minus time attributed to child spans (parent-relative
    /// self-time).
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

/// A track is one thread that recorded spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackInfo {
    /// The thread's index; becomes `tid` in the Chrome export.
    pub id: u32,
    /// The thread's name, or `thread-<id>` when unnamed.
    pub name: String,
}

/// Everything the collector gathered: finished spans, the tracks they
/// ran on, and how many spans the retention cap discarded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Finished spans, sorted by `(track, start_ns)`.
    pub spans: Vec<SpanRecord>,
    /// Tracks in id order.
    pub tracks: Vec<TrackInfo>,
    /// Spans discarded by the retention cap (0 in any sane run).
    pub dropped: u64,
}

impl Trace {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of finished spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct LocalBuf {
    track: u32,
    stack: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
}

impl LocalBuf {
    fn new() -> LocalBuf {
        let track = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{track}"));
        let mut global = GLOBAL.lock().expect("span sink lock");
        global.tracks.push(TrackInfo { id: track, name });
        LocalBuf {
            track,
            stack: Vec::new(),
            done: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.done.is_empty() {
            return;
        }
        let mut global = GLOBAL.lock().expect("span sink lock");
        let room = MAX_RETAINED.saturating_sub(global.spans.len());
        if self.done.len() > room {
            DROPPED.fetch_add((self.done.len() - room) as u64, Ordering::Relaxed);
            self.done.truncate(room);
        }
        global.spans.append(&mut self.done);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        // Thread exit: whatever the batching kept local goes global now,
        // which is how short-lived `par_map` workers hand in their spans.
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

/// RAII guard for one timed span; created by [`SpanGuard::enter`] or the
/// [`span!`](crate::span) macro, recorded when dropped.
///
/// Guards are strictly scoped (construction to drop), so spans on a track
/// nest like a call stack and the collector can compute parent-relative
/// self-time without reconstructing intervals.
#[derive(Debug)]
#[must_use = "a span measures the scope holding the guard; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    /// Opens a span named `name` on the current thread's track. When
    /// collection is disabled this is one relaxed load and a branch: no
    /// clock read, no allocation, nothing to drop.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { active: false };
        }
        Self::enter_enabled(name)
    }

    #[cold]
    fn enter_enabled(name: &'static str) -> SpanGuard {
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            let buf = slot.get_or_insert_with(LocalBuf::new);
            buf.stack.push(OpenSpan {
                name,
                start_ns: now_ns(),
                child_ns: 0,
            });
        });
        SpanGuard { active: true }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            let buf = slot.as_mut().expect("active guard implies a local buffer");
            let open = buf.stack.pop().expect("guards close in LIFO order");
            let dur_ns = now_ns().saturating_sub(open.start_ns);
            if let Some(parent) = buf.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            buf.done.push(SpanRecord {
                name: open.name,
                track: buf.track,
                start_ns: open.start_ns,
                dur_ns,
                child_ns: open.child_ns,
                depth: buf.stack.len() as u16,
            });
            if buf.done.len() >= FLUSH_THRESHOLD {
                buf.flush();
            }
        });
    }
}

/// Drains every finished span collected so far into a [`Trace`] and
/// resets the sink (tracks and the time base persist).
///
/// Spans still buffered on *other* live threads are not visible until
/// those threads flush (at the batching threshold or on thread exit), so
/// collect after joining any workers — `par_map` always joins before
/// returning, which makes its shards safe to collect.
pub fn take_trace() -> Trace {
    // Flush the calling thread's buffer first.
    LOCAL.with(|slot| {
        if let Some(buf) = slot.borrow_mut().as_mut() {
            buf.flush();
        }
    });
    let mut global = GLOBAL.lock().expect("span sink lock");
    let mut spans = std::mem::take(&mut global.spans);
    let mut tracks = global.tracks.clone();
    drop(global);
    spans.sort_by_key(|s| (s.track, s.start_ns, std::cmp::Reverse(s.dur_ns)));
    tracks.sort_by_key(|t| t.id);
    Trace {
        spans,
        tracks,
        dropped: DROPPED.swap(0, Ordering::Relaxed),
    }
}

/// Disables collection and discards every span collected so far (open
/// spans on live threads still unwind harmlessly).
pub fn reset() {
    disable();
    let _ = take_trace();
}
