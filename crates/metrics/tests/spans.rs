//! Integration tests for span collection. The span table is process
//! global, so every test serializes on one mutex and drains the table
//! before asserting.

use std::sync::Mutex;

use pcb_metrics::span;
use pcb_metrics::spans::{self, Profile, ProfileRow};

static REGISTRY: Mutex<()> = Mutex::new(());

/// Runs `body` with exclusive ownership of the (clean) global table.
fn exclusive<T>(body: impl FnOnce() -> T) -> T {
    let _guard = REGISTRY.lock().expect("no test panics while holding");
    spans::reset();
    let value = body();
    spans::reset();
    value
}

/// The profile's row for `name`.
fn row<'a>(profile: &'a Profile, name: &str) -> &'a ProfileRow {
    profile
        .rows
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no {name} row in {profile:?}"))
}

#[test]
fn disabled_spans_record_nothing() {
    exclusive(|| {
        {
            let _span = span!("invisible");
        }
        assert!(spans::take_profile().is_empty());
    });
}

#[test]
fn guards_entered_while_disabled_stay_inert() {
    exclusive(|| {
        let early = span!("before-enable");
        spans::enable();
        drop(early);
        assert!(spans::take_profile().is_empty());
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
        let profile = spans::take_profile();
        assert_eq!(profile.rows.len(), 2);
        let (outer, inner) = (row(&profile, "outer"), row(&profile, "inner"));
        assert_eq!((outer.dur.count(), inner.dur.count()), (1, 1));
        assert!(outer.dur.sum() >= inner.dur.sum());
        assert_eq!(inner.self_ns, inner.dur.sum(), "a leaf is all self-time");
        assert!(
            outer.self_ns <= outer.dur.sum() - inner.dur.sum(),
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
        let profile = spans::take_profile();
        assert_eq!(row(&profile, "on-main").dur.count(), 1);
        assert_eq!(row(&profile, "on-worker").dur.count(), 3);
    });
}

#[test]
fn take_profile_drains_the_table() {
    exclusive(|| {
        spans::enable();
        {
            let _span = span!("once");
        }
        spans::disable();
        assert_eq!(row(&spans::take_profile(), "once").dur.count(), 1);
        assert!(spans::take_profile().is_empty(), "second take is empty");
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
        let profile = spans::take_profile();
        assert_eq!(profile.rows.len(), 1);
        assert_eq!(profile.rows[0].name, "repeated");
        assert_eq!(profile.rows[0].dur.count(), 10);
        assert!(profile.render_table().contains("repeated"));
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
        assert_eq!(row(&spans::take_profile(), "many").dur.count(), 4_000_001);
    });
}
