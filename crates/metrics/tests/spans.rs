//! Integration tests for span collection. Spans fold into the
//! process-global registry, so every test serializes on one mutex and
//! starts from a zeroed registry.

use std::sync::Mutex;

use pcb_metrics::span;
use pcb_metrics::spans;

static REGISTRY: Mutex<()> = Mutex::new(());

/// Runs `body` with exclusive ownership of the (zeroed) registry.
fn exclusive<T>(body: impl FnOnce() -> T) -> T {
    let _guard = REGISTRY.lock().expect("no test panics while holding");
    clear();
    let value = body();
    clear();
    value
}

/// Turns spans off and zeroes everything folded so far.
fn clear() {
    spans::disable();
    spans::flush();
    pcb_metrics::reset();
}

/// Flushes this thread's spans and returns the names that recorded any.
fn recorded() -> Vec<String> {
    spans::flush();
    pcb_metrics::snapshot()
        .histograms()
        .filter(|(name, h)| name.starts_with("span.") && h.count() > 0)
        .map(|(name, _)| name.to_string())
        .collect()
}

/// `(count, total ns, self ns)` of the spans named `name`.
fn row(name: &str) -> (u64, u64, u64) {
    spans::flush();
    let snap = pcb_metrics::snapshot();
    let dur = snap
        .histogram(&format!("span.{name}"))
        .unwrap_or_else(|| panic!("no span.{name} in {snap:?}"));
    let self_ns = snap.counter(&format!("span.{name}.self_ns"));
    (dur.count(), dur.sum(), self_ns)
}

#[test]
fn disabled_spans_record_nothing() {
    exclusive(|| {
        {
            let _span = span!("invisible");
        }
        assert!(recorded().is_empty());
    });
}

#[test]
fn guards_entered_while_disabled_stay_inert() {
    exclusive(|| {
        let early = span!("before-enable");
        spans::enable();
        drop(early);
        assert!(recorded().is_empty());
    });
}

#[test]
fn nested_spans_attribute_self_time_to_the_parent() {
    exclusive(|| {
        spans::enable();
        {
            let _outer = span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span!("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        spans::disable();
        assert_eq!(recorded(), ["span.inner", "span.outer"]);
        let (outer_count, outer_ns, outer_self) = row("outer");
        let (inner_count, inner_ns, inner_self) = row("inner");
        assert_eq!((outer_count, inner_count), (1, 1));
        assert!(outer_ns >= inner_ns);
        assert_eq!(inner_self, inner_ns, "a leaf is all self-time");
        assert!(
            outer_self <= outer_ns - inner_ns,
            "the inner span's time is charged to the parent"
        );
    });
}

#[test]
fn worker_rows_fold_in_after_join() {
    exclusive(|| {
        spans::enable();
        {
            let _span = span!("on-main");
        }
        std::thread::spawn(|| {
            for _ in 0..3 {
                let _span = span!("on-worker");
            }
        })
        .join()
        .unwrap();
        spans::disable();
        assert_eq!(row("on-main").0, 1);
        assert_eq!(row("on-worker").0, 3);
    });
}

/// A flush hands the thread's rows over once: flushing again adds
/// nothing, and the registry keeps what the first flush folded.
#[test]
fn flush_folds_each_span_once() {
    exclusive(|| {
        spans::enable();
        {
            let _span = span!("once");
        }
        spans::disable();
        assert_eq!(row("once").0, 1);
        assert_eq!(row("once").0, 1, "a second flush folds nothing");
    });
}

#[test]
fn profile_rows_match_span_volume() {
    exclusive(|| {
        spans::enable();
        for _ in 0..10 {
            let _span = span!("repeated");
        }
        spans::disable();
        assert_eq!(recorded(), ["span.repeated"]);
        assert_eq!(row("repeated").0, 10);
        let table = spans::render_table(&pcb_metrics::snapshot());
        assert_eq!(table.lines().count(), 2, "header and one row");
        assert!(table.contains("repeated"));
    });
}

/// A profile keeps no span, so it has no retention cap to fall off: one
/// span past the four million a span buffer used to hold is still
/// counted.
#[test]
fn profile_counts_every_span() {
    exclusive(|| {
        spans::enable();
        for _ in 0..4_000_001 {
            let _span = span!("many");
        }
        spans::disable();
        assert_eq!(row("many").0, 4_000_001);
    });
}
