//! Span collection: a process-global, thread-aware profile of timed
//! spans — where the wall clock goes inside the engine (`Execution::run`
//! phases, `par_map` shard lifetimes, exhaustive-search BFS levels).
//!
//! Design goals, in order:
//!
//! 1. **Disabled means free.** Instrumentation stays compiled into release
//!    binaries, so the disabled path must cost nothing measurable: one
//!    relaxed atomic load and a branch per [`SpanGuard::enter`], no clock
//!    read, no allocation, no locking.
//! 2. **Enabled means bounded.** A finished span is not kept: it folds
//!    into its name's row of a thread-local table (a duration
//!    [`Histogram`] plus a self-time sum), so memory grows with the number
//!    of span names, not with the number of spans, and nothing is dropped
//!    however long the run. Open spans live on a thread-local stack, so
//!    worker threads never contend on a lock in their hot loop.
//! 3. **Threads fold on exit.** A thread's table folds into the global
//!    one when the thread exits, and the calling thread's when
//!    [`take_profile`] is called, so `par_map` workers' spans are counted
//!    once they have been joined.
//!
//! ```
//! use pcb_metrics::spans;
//!
//! spans::enable();
//! {
//!     let _outer = pcb_metrics::span!("outer");
//!     let _inner = pcb_metrics::span!("inner");
//! } // guards drop here, recording both spans
//! let profile = spans::take_profile();
//! assert_eq!(profile.rows.len(), 2);
//! assert_eq!(profile.rows[0].dur.count(), 1);
//! # spans::reset();
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::hist::Histogram;
pub use crate::profile::{Profile, ProfileRow};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The rows of every thread that has exited or been drained.
static GLOBAL: Mutex<Vec<ProfileRow>> = Mutex::new(Vec::new());

/// Turns span collection on. Guards entered while disabled stay inert
/// even if collection is enabled before they drop.
pub fn enable() {
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

/// The row for `name` in `rows`, appended empty when absent. A run has a
/// handful of span names, so a linear scan beats any map.
fn row<'a>(rows: &'a mut Vec<ProfileRow>, name: &'static str) -> &'a mut ProfileRow {
    match rows.iter().position(|r| r.name == name) {
        Some(i) => &mut rows[i],
        None => {
            rows.push(ProfileRow {
                name,
                dur: Histogram::new(),
                self_ns: 0,
            });
            rows.last_mut().expect("just pushed")
        }
    }
}

struct OpenSpan {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Local {
    stack: Vec<OpenSpan>,
    rows: Vec<ProfileRow>,
}

impl Local {
    /// Moves this thread's rows into the global table.
    fn fold(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        // This also runs in `Drop`, where a panic aborts: a table poisoned
        // by a thread that panicked mid-fold is already incomplete, so
        // these rows are dropped instead.
        let Ok(mut global) = GLOBAL.lock() else {
            return;
        };
        for local in self.rows.drain(..) {
            let row = row(&mut global, local.name);
            row.dur.merge(&local.dur);
            row.self_ns += local.self_ns;
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Thread exit: this is how short-lived `par_map` workers hand in
        // their rows.
        self.fold();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            stack: Vec::new(),
            rows: Vec::new(),
        })
    };
}

/// RAII guard for one timed span; created by [`SpanGuard::enter`] or the
/// [`span!`](crate::span) macro, recorded when dropped.
///
/// Guards are strictly scoped (construction to drop), so spans on a
/// thread nest like a call stack and the collector can compute
/// parent-relative self-time without reconstructing intervals.
#[derive(Debug)]
#[must_use = "a span measures the scope holding the guard; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    /// Opens a span named `name` on the current thread. When collection
    /// is disabled this is one relaxed load and a branch: no clock read,
    /// no allocation, nothing to drop.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { active: false };
        }
        Self::enter_enabled(name)
    }

    #[cold]
    fn enter_enabled(name: &'static str) -> SpanGuard {
        LOCAL.with_borrow_mut(|local| {
            local.stack.push(OpenSpan {
                name,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        SpanGuard { active: true }
    }

    /// Closes the innermost open span and folds it into its row.
    #[cold]
    fn exit() {
        LOCAL.with_borrow_mut(|local| {
            let open = local.stack.pop().expect("guards close in LIFO order");
            let dur_ns = open.start.elapsed().as_nanos() as u64;
            if let Some(parent) = local.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            let row = row(&mut local.rows, open.name);
            row.dur.record(dur_ns);
            row.self_ns += dur_ns.saturating_sub(open.child_ns);
        });
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            Self::exit();
        }
    }
}

/// Drains every span folded so far into a [`Profile`] and empties the
/// table.
///
/// Rows still held by *other* live threads are not visible until those
/// threads exit, so take the profile after joining any workers —
/// `par_map` always joins before returning, which makes its shards safe
/// to collect.
pub fn take_profile() -> Profile {
    LOCAL.with_borrow_mut(Local::fold);
    let rows = std::mem::take(&mut *GLOBAL.lock().expect("span table lock"));
    Profile::new(rows)
}

/// Disables collection and discards every span collected so far (open
/// spans on live threads still unwind harmlessly).
pub fn reset() {
    disable();
    let _ = take_profile();
}
