//! Span collection: timed spans folded into the metric registry — where
//! the wall clock goes inside the engine (`Execution` round phases,
//! `par_map` shard lifetimes, exhaustive-search BFS levels).
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
//! 3. **One store.** A thread's rows fold into the registry when the
//!    thread exits, and the calling thread's when [`flush`] is called, as
//!    the histogram `span.<name>` of durations in nanoseconds and the
//!    counter `span.<name>.self_ns`. So `par_map` workers' spans are
//!    counted once they have been joined, [`render_table`] prints the
//!    family as the `--profile` table, and an exported snapshot carries
//!    it too. The fold ignores [`crate::enabled`]: spans have their own
//!    switch.
//!
//! ```
//! use pcb_metrics::spans;
//!
//! spans::enable();
//! {
//!     let _outer = pcb_metrics::span!("outer");
//!     let _inner = pcb_metrics::span!("inner");
//! } // guards drop here, recording both spans
//! spans::disable();
//! spans::flush();
//! let snap = pcb_metrics::snapshot();
//! assert_eq!(snap.histogram("span.outer").unwrap().count(), 1);
//! assert!(spans::render_table(&snap).contains("inner"));
//! # pcb_metrics::reset();
//! ```

use std::cell::RefCell;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::hist::Histogram;
use crate::registry::REGISTRY;
use crate::snapshot::MetricsSnapshot;

static ENABLED: AtomicBool = AtomicBool::new(false);

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

/// One span name's closed spans on one thread.
struct Row {
    name: &'static str,
    dur: Histogram,
    self_ns: u64,
}

struct OpenSpan {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Local {
    stack: Vec<OpenSpan>,
    rows: Vec<Row>,
}

impl Local {
    /// The row for `name`, appended empty when absent. A run has a
    /// handful of span names, so a linear scan beats any map.
    fn row(&mut self, name: &'static str) -> &mut Row {
        match self.rows.iter().position(|r| r.name == name) {
            Some(i) => &mut self.rows[i],
            None => {
                self.rows.push(Row {
                    name,
                    dur: Histogram::new(),
                    self_ns: 0,
                });
                self.rows.last_mut().expect("just pushed")
            }
        }
    }

    /// Moves this thread's rows into the registry.
    fn fold(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        // This also runs in `Drop`, where a panic aborts: a registry
        // poisoned by a thread that panicked mid-fold is already
        // incomplete, so these rows are dropped instead.
        let Ok(mut registry) = REGISTRY.lock() else {
            return;
        };
        for row in self.rows.drain(..) {
            let name = format!("span.{}", row.name);
            registry.add_counter(format!("{name}.self_ns"), row.self_ns);
            registry.merge_histogram(name, &row.dur);
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
            let row = local.row(open.name);
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

/// Folds the calling thread's closed spans into the registry.
///
/// Rows still held by *other* live threads are not folded until those
/// threads exit, so flush after joining any workers — `par_map` always
/// joins before returning, which makes its shards safe to collect.
pub fn flush() {
    LOCAL.with_borrow_mut(Local::fold);
}

/// Renders the `span.` family of `snap` as the per-phase profile table:
/// one row per span name with its count / total / mean / max duration
/// and its self-time, heaviest total first (ties in name order). Names
/// with no span (a [`reset`](crate::reset) registry) are skipped.
pub fn render_table(snap: &MetricsSnapshot) -> String {
    let mut rows: Vec<(&str, &Histogram)> = snap
        .histograms()
        .filter_map(|(name, dur)| Some((name.strip_prefix("span.")?, dur)))
        .filter(|(_, dur)| dur.count() > 0)
        .collect();
    // Stable, so equal totals keep the snapshot's name order.
    rows.sort_by_key(|(_, dur)| Reverse(dur.sum()));
    let mut out = format!(
        "{:<28} {:>9} {:>11} {:>11} {:>11} {:>11}\n",
        "span", "count", "total", "mean", "max", "self"
    );
    for (name, dur) in rows {
        out.push_str(&format!(
            "{:<28} {:>9} {:>11} {:>11} {:>11} {:>11}\n",
            name,
            dur.count(),
            fmt_ns(dur.sum() as f64),
            fmt_ns(dur.mean()),
            fmt_ns(dur.max() as f64),
            fmt_ns(snap.counter(&format!("span.{name}.self_ns")) as f64),
        ));
    }
    out
}

/// Human-scale duration: picks ns/us/ms/s so the mantissa stays short.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot holding one `span.<name>` family member per row.
    fn snapshot(rows: &[(&str, &[u64], u64)]) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for &(name, durs, self_ns) in rows {
            let mut dur = Histogram::new();
            for &d in durs {
                dur.record(d);
            }
            snap.merge_histogram(format!("span.{name}"), &dur);
            snap.add_counter(format!("span.{name}.self_ns"), self_ns);
        }
        snap
    }

    #[test]
    fn aggregation_computes_all_columns() {
        let snap = snapshot(&[
            ("free", &[50], 50),
            ("alloc", &[100, 300], 360),
            ("idle", &[], 0),
        ]);
        let table = render_table(&snap);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header, alloc, free; idle skipped");
        let alloc: Vec<&str> = lines[1].split_whitespace().collect();
        assert_eq!(
            alloc,
            ["alloc", "2", "400", "ns", "200", "ns", "300", "ns", "360", "ns"]
        );
        assert!(lines[2].starts_with("free "));
    }

    #[test]
    fn table_lists_every_row() {
        let table = render_table(&snapshot(&[("engine.run", &[2_500_000], 0)]));
        assert!(table.contains("engine.run"));
        assert!(table.contains("2.5 ms"));
        assert!(table.starts_with("span"));
    }

    #[test]
    fn durations_format_across_scales() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(12_340.0), "12.3 us");
        assert_eq!(fmt_ns(12_340_000.0), "12.3 ms");
        assert_eq!(fmt_ns(12_340_000_000.0), "12.34 s");
    }
}
