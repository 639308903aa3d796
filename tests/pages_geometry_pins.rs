//! Behavioural pins for the page manager's geometries.
//!
//! `P_F` (full variant) against `PageManager::with_geometry(c, log n,
//! slots)` for every page size in {4, 8, 16, 128} slots — 128 being the
//! geometry whose pages span several occupancy words — at M = 2^12–2^14.
//! Each run pins the whole report, the eviction count, the internal waste
//! and an FNV-1a digest of the recorded trace, so any change to a
//! placement, an evacuation order or the free-slot accounting moves at
//! least one of them. The pinned values were produced by the seed
//! slot-vector page manager; an intentional behaviour change must update
//! them consciously.

use partial_compaction::alloc::PageManager;
use partial_compaction::heap::{Execution, Heap, MemoryManager, Program};
use partial_compaction::{FaultPlan, PfConfig, PfProgram, PfVariant, TraceWriter};

/// One pinned run: `(m, log_n, c, slots)` and what it produced.
struct Pin {
    m: u64,
    log_n: u32,
    c: u64,
    slots: usize,
    /// `format!("{program} vs {manager}: {summary:?}")` of the run.
    report: &'static str,
    evictions: u64,
    internal_waste: u64,
    trace_fnv: u64,
}

/// FNV-1a (64-bit) over a streamed JSONL trace, taken in the
/// whole-document shape `{"c":N,"events":[e1,e2,...]}` the pinned digests
/// were first recorded in: each `ei` is one event line, verbatim.
fn trace_fnv(jsonl: &[u8]) -> u64 {
    let mut lines = jsonl.split(|&b| b == b'\n').filter(|l| !l.is_empty());
    let header = lines.next().expect("header line");
    let mut doc = header.strip_suffix(b"}").expect("header object").to_vec();
    doc.extend_from_slice(b",\"events\":[");
    for (i, line) in lines.enumerate() {
        if i > 0 {
            doc.push(b',');
        }
        doc.extend_from_slice(line);
    }
    doc.extend_from_slice(b"]}");
    doc.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders a run in the shape of the table below, so a mismatch prints
/// the row to paste after an intentional behaviour change.
fn render(report: &str, evictions: u64, internal_waste: u64, trace_fnv: u64) -> String {
    format!(
        "report: {report:?},\nevictions: {evictions},\ninternal_waste: {internal_waste},\ntrace_fnv: {trace_fnv:#018x},"
    )
}

fn run(pin: &Pin) -> String {
    let cfg = PfConfig::new(pin.m, pin.log_n, pin.c)
        .expect("feasible")
        .with_variant(PfVariant::FULL);
    let mut exec = Execution::new(
        Heap::new(pin.c),
        PfProgram::new(cfg),
        PageManager::with_geometry(pin.c, pin.log_n, pin.slots),
    );
    let mut writer = TraceWriter::new(Vec::new(), pin.c, FaultPlan::empty());
    let summary = exec.run_observed(&mut writer).expect("runs");
    let (_, program, manager) = exec.into_parts();
    render(
        &format!("{} vs {}: {summary:?}", program.name(), manager.name()),
        manager.evictions(),
        manager.internal_waste(),
        trace_fnv(&writer.finish().expect("in-memory sink")),
    )
}

const PINS: &[Pin] = &[
    Pin {
        m: 1 << 12,
        log_n: 8,
        c: 10,
        slots: 4,
        report: "pf vs pages-thm2: HeapSummary { c: 10, live_bound: 4096, heap_size: 8448, peak_live: 4096, waste_factor: 2.0625, moved_fraction: 0.0041753653444676405, rounds: 7, objects_placed: 5172, objects_freed: 2585, objects_moved: 1, words_placed: 7664, words_moved: 32, external_waste: 4384, ghost_words: 32, internal_waste: 4576 }",
        evictions: 1,
        internal_waste: 4576,
        trace_fnv: 0xc9073cec6eb06901,
    },
    Pin {
        m: 1 << 12,
        log_n: 8,
        c: 10,
        slots: 8,
        report: "pf vs pages-thm2: HeapSummary { c: 10, live_bound: 4096, heap_size: 10496, peak_live: 4096, waste_factor: 2.5625, moved_fraction: 0.0041753653444676405, rounds: 7, objects_placed: 5172, objects_freed: 2586, objects_moved: 2, words_placed: 7664, words_moved: 32, external_waste: 6432, ghost_words: 32, internal_waste: 6176 }",
        evictions: 1,
        internal_waste: 6176,
        trace_fnv: 0x318108dc337b044d,
    },
    Pin {
        m: 1 << 12,
        log_n: 8,
        c: 10,
        slots: 16,
        report: "pf vs pages-thm2: HeapSummary { c: 10, live_bound: 4096, heap_size: 12544, peak_live: 4096, waste_factor: 3.0625, moved_fraction: 0.0041753653444676405, rounds: 7, objects_placed: 5172, objects_freed: 2586, objects_moved: 2, words_placed: 7664, words_moved: 32, external_waste: 8480, ghost_words: 32, internal_waste: 9248 }",
        evictions: 1,
        internal_waste: 9248,
        trace_fnv: 0x61f692232cc701ed,
    },
    Pin {
        m: 1 << 12,
        log_n: 8,
        c: 10,
        slots: 128,
        report: "pf vs pages-thm2: HeapSummary { c: 10, live_bound: 4096, heap_size: 33024, peak_live: 4096, waste_factor: 8.0625, moved_fraction: 0.0, rounds: 7, objects_placed: 5172, objects_freed: 2584, objects_moved: 0, words_placed: 7664, words_moved: 0, external_waste: 28928, ghost_words: 0, internal_waste: 57344 }",
        evictions: 0,
        internal_waste: 57344,
        trace_fnv: 0xb9dbfd30b5650021,
    },
    Pin {
        m: 1 << 13,
        log_n: 9,
        c: 15,
        slots: 4,
        report: "pf vs pages-thm2: HeapSummary { c: 15, live_bound: 8192, heap_size: 13824, peak_live: 8192, waste_factor: 1.6875, moved_fraction: 0.06210049715909091, rounds: 8, objects_placed: 11309, objects_freed: 10115, objects_moved: 1399, words_placed: 22528, words_moved: 1399, external_waste: 6775, ghost_words: 1399, internal_waste: 4763 }",
        evictions: 1399,
        internal_waste: 4763,
        trace_fnv: 0x1667ab7592aec0ab,
    },
    Pin {
        m: 1 << 13,
        log_n: 9,
        c: 15,
        slots: 8,
        report: "pf vs pages-thm2: HeapSummary { c: 15, live_bound: 8192, heap_size: 17920, peak_live: 8192, waste_factor: 2.1875, moved_fraction: 0.062056107954545456, rounds: 8, objects_placed: 11309, objects_freed: 9934, objects_moved: 1218, words_placed: 22528, words_moved: 1398, external_waste: 10870, ghost_words: 1398, internal_waste: 9374 }",
        evictions: 609,
        internal_waste: 9374,
        trace_fnv: 0xb7e524f2266a21fe,
    },
    Pin {
        m: 1 << 13,
        log_n: 9,
        c: 15,
        slots: 16,
        report: "pf vs pages-thm2: HeapSummary { c: 15, live_bound: 8192, heap_size: 17920, peak_live: 8192, waste_factor: 2.1875, moved_fraction: 0.061967329545454544, rounds: 8, objects_placed: 11309, objects_freed: 9936, objects_moved: 1220, words_placed: 22528, words_moved: 1396, external_waste: 10868, ghost_words: 1396, internal_waste: 16036 }",
        evictions: 305,
        internal_waste: 16036,
        trace_fnv: 0x0d0df850003ce2de,
    },
    Pin {
        m: 1 << 13,
        log_n: 9,
        c: 15,
        slots: 128,
        report: "pf vs pages-thm2: HeapSummary { c: 15, live_bound: 8192, heap_size: 132608, peak_live: 8192, waste_factor: 16.1875, moved_fraction: 0.061079545454545456, rounds: 8, objects_placed: 11309, objects_freed: 9996, objects_moved: 1280, words_placed: 22528, words_moved: 1376, external_waste: 125536, ghost_words: 1376, internal_waste: 122592 }",
        evictions: 40,
        internal_waste: 122592,
        trace_fnv: 0xdbf06f41467e7a1a,
    },
    Pin {
        m: 1 << 14,
        log_n: 10,
        c: 20,
        slots: 4,
        report: "pf vs pages-thm2: HeapSummary { c: 20, live_bound: 16384, heap_size: 34816, peak_live: 16384, waste_factor: 2.125, moved_fraction: 0.04774790502793296, rounds: 9, objects_placed: 22612, objects_freed: 19231, objects_moved: 1882, words_placed: 45824, words_moved: 2188, external_waste: 20912, ghost_words: 2188, internal_waste: 16624 }",
        evictions: 1882,
        internal_waste: 16624,
        trace_fnv: 0x0f26be4535e8b751,
    },
    Pin {
        m: 1 << 14,
        log_n: 10,
        c: 20,
        slots: 8,
        report: "pf vs pages-thm2: HeapSummary { c: 20, live_bound: 16384, heap_size: 43008, peak_live: 16384, waste_factor: 2.625, moved_fraction: 0.04774790502793296, rounds: 9, objects_placed: 22612, objects_freed: 19098, objects_moved: 1750, words_placed: 45824, words_moved: 2188, external_waste: 29100, ghost_words: 2188, internal_waste: 26108 }",
        evictions: 875,
        internal_waste: 26108,
        trace_fnv: 0x0e7016f046175ba6,
    },
    Pin {
        m: 1 << 14,
        log_n: 10,
        c: 20,
        slots: 16,
        report: "pf vs pages-thm2: HeapSummary { c: 20, live_bound: 16384, heap_size: 51200, peak_live: 16384, waste_factor: 3.125, moved_fraction: 0.04774790502793296, rounds: 9, objects_placed: 22612, objects_freed: 19160, objects_moved: 1812, words_placed: 45824, words_moved: 2188, external_waste: 37292, ghost_words: 2188, internal_waste: 39420 }",
        evictions: 453,
        internal_waste: 39420,
        trace_fnv: 0x30efcbb91d21bb3b,
    },
    Pin {
        m: 1 << 14,
        log_n: 10,
        c: 20,
        slots: 128,
        report: "pf vs pages-thm2: HeapSummary { c: 20, live_bound: 16384, heap_size: 264192, peak_live: 16384, waste_factor: 16.125, moved_fraction: 0.04748603351955307, rounds: 9, objects_placed: 22612, objects_freed: 19148, objects_moved: 1824, words_placed: 45824, words_moved: 2176, external_waste: 250176, ghost_words: 2176, internal_waste: 257856 }",
        evictions: 57,
        internal_waste: 257856,
        trace_fnv: 0xd7481c1251869079,
    },
];

#[test]
fn every_page_geometry_reproduces_its_pinned_run() {
    let mut failures = Vec::new();
    for pin in PINS {
        let got = run(pin);
        let want = render(pin.report, pin.evictions, pin.internal_waste, pin.trace_fnv);
        if got != want {
            failures.push(format!(
                "slots={} (M={}, log n={}, c={}):\n{got}",
                pin.slots, pin.m, pin.log_n, pin.c
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
