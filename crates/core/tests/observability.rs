//! Observers must be invisible in the physics: attaching event recorders
//! and per-round series to a run, or switching on span collection and
//! the metrics plane (which carries the manager counters), must leave every
//! `HeapSummary` field identical to the plain run — under the sequential code
//! path and under parallel workers alike.
//!
//! This file holds a single `#[test]` on purpose: it mutates the
//! process-wide `PCB_THREADS` variable, and cargo runs test binaries one
//! at a time, so a lone test is the race-free way to flip the knob.

use partial_compaction::heap::TraceRecorder;
use partial_compaction::{metrics, sim, ManagerKind, Params};

fn with_threads<T>(threads: &str, run: impl FnOnce() -> T) -> T {
    let saved = std::env::var("PCB_THREADS").ok();
    std::env::set_var("PCB_THREADS", threads);
    let out = run();
    match saved {
        Some(v) => std::env::set_var("PCB_THREADS", v),
        None => std::env::remove_var("PCB_THREADS"),
    }
    out
}

fn fingerprint(report: &partial_compaction::heap::HeapSummary) -> String {
    format!("{report:?}")
}

/// The plain, the observed, and the instrumented (spans and metrics on)
/// report of one run.
fn run_arms(kind: ManagerKind) -> [String; 3] {
    let params = Params::new(1 << 13, 9, 20).expect("valid");
    let plain = sim::Sim::new(params)
        .manager(kind)
        .run()
        .expect("plain run");
    let mut recorder = TraceRecorder::new(params.c());
    let watched = sim::Sim::new(params)
        .manager(kind)
        .observe(&mut recorder)
        .series(1)
        .run()
        .expect("observed run");
    assert!(
        !recorder.into_trace().is_empty(),
        "{}: the recorder saw no events",
        kind.name()
    );
    assert!(
        watched.series.as_ref().is_some_and(|s| !s.is_empty()),
        "{}: no series collected",
        kind.name()
    );

    metrics::spans::enable();
    metrics::enable();
    let instrumented = sim::Sim::new(params)
        .manager(kind)
        .run()
        .expect("instrumented run");
    metrics::spans::disable();
    metrics::disable();
    metrics::spans::flush();
    let snap = metrics::snapshot();
    assert!(
        snap.histogram("span.engine.run")
            .is_some_and(|h| h.count() > 0),
        "{}: no engine span collected",
        kind.name()
    );
    assert!(
        snap.counter("engine.rounds") > 0,
        "{}: no engine metrics collected",
        kind.name()
    );
    metrics::reset();
    [
        fingerprint(&plain.execution),
        fingerprint(&watched.execution),
        fingerprint(&instrumented.execution),
    ]
}

#[test]
fn observers_never_change_the_report() {
    for threads in ["1", "4"] {
        with_threads(threads, || {
            for kind in ManagerKind::ALL {
                let [plain, watched, instrumented] = run_arms(kind);
                assert_eq!(
                    plain,
                    watched,
                    "{} diverged under observation (PCB_THREADS={threads})",
                    kind.name()
                );
                assert_eq!(
                    plain,
                    instrumented,
                    "{} diverged with spans and metrics on (PCB_THREADS={threads})",
                    kind.name()
                );
            }
        });
    }
}
