//! Behavioural pins for every `P_F` variant.
//!
//! For `FULL`, `BASELINE` and each variant with exactly one of Section
//! 3.1's improvements on, run against `first-fit` and `pages-thm2` with
//! validation on, and pin everything the run exposes: the whole report,
//! the analysis' `s₁/s₂/q₁/q₂`, the final potential `u(t)` and an FNV-1a
//! digest of the recorded trace. Any change to the adversary's decisions
//! (which objects it frees, what it allocates, how it associates) moves at
//! least one of these. The pinned values were produced by the seed
//! `BTreeMap`/`HashMap` association; an intentional behaviour change must
//! update them consciously.

use partial_compaction::heap::{Execution, Heap, MemoryManager, Program};
use partial_compaction::{
    FaultPlan, ManagerKind, Params, PfConfig, PfProgram, PfVariant, TraceWriter,
};

/// One pinned run: `(variant, manager, m, log_n, c)` and what it produced.
struct Pin {
    variant: &'static str,
    manager: ManagerKind,
    m: u64,
    log_n: u32,
    c: u64,
    /// `format!("{program} vs {manager}: {summary:?}")` of the run.
    report: &'static str,
    /// `[s1, s2, q1, q2]` words.
    stage_words: [u64; 4],
    potential: i128,
    trace_fnv: u64,
}

fn variant(name: &str) -> PfVariant {
    let one = |robson_stage1, regimented_alloc, half_assignment| PfVariant {
        robson_stage1,
        regimented_alloc,
        half_assignment,
    };
    match name {
        "full" => PfVariant::FULL,
        "baseline" => PfVariant::BASELINE,
        "robson-only" => one(true, false, false),
        "regimented-only" => one(false, true, false),
        "halves-only" => one(false, false, true),
        other => panic!("unknown variant {other}"),
    }
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

fn run(pin: &Pin) -> String {
    let cfg = PfConfig::new(pin.m, pin.log_n, pin.c)
        .expect("feasible")
        .with_variant(variant(pin.variant))
        .with_validation();
    let params = Params::new(pin.m, pin.log_n, pin.c).expect("valid");
    let mut exec = Execution::new(
        Heap::new(pin.c),
        PfProgram::new(cfg),
        pin.manager.build(&params),
    );
    let mut writer = TraceWriter::new(Vec::new(), pin.c, FaultPlan::empty());
    let summary = exec.run_observed(&mut writer).expect("runs");
    let report = format!(
        "{} vs {}: {summary:?}",
        exec.program().name(),
        exec.manager().name()
    );
    let program = exec.program();
    assert!(
        program.violations().is_empty(),
        "{} vs {}: {:?}",
        pin.variant,
        pin.manager,
        program.violations()
    );
    let trace_fnv = trace_fnv(&writer.finish().expect("in-memory sink"));
    // Rendered in the same shape as the table below, so a mismatch prints
    // the row to paste after an intentional behaviour change.
    format!(
        "report: {:?}\nstage_words: [{}, {}, {}, {}],\npotential: {},\ntrace_fnv: {:#018x},",
        report,
        program.s1_words(),
        program.s2_words(),
        program.q1_words(),
        program.q2_words(),
        program.potential().expect("stage II ran"),
        trace_fnv,
    )
}

fn expected(pin: &Pin) -> String {
    format!(
        "report: {:?}\nstage_words: [{}, {}, {}, {}],\npotential: {},\ntrace_fnv: {:#018x},",
        pin.report,
        pin.stage_words[0],
        pin.stage_words[1],
        pin.stage_words[2],
        pin.stage_words[3],
        pin.potential,
        pin.trace_fnv,
    )
}

const PINS: &[Pin] = &[
    Pin {
        variant: "full",
        manager: ManagerKind::FirstFit,
        m: 1 << 14,
        log_n: 10,
        c: 20,
        report: "pf vs first-fit: HeapSummary { c: 20, live_bound: 16384, heap_size: 44017, peak_live: 16384, waste_factor: 2.68658447265625, moved_fraction: 0.0, rounds: 9, objects_placed: 22608, objects_freed: 16940, objects_moved: 0, words_placed: 44032, words_moved: 0, external_waste: 28081, ghost_words: 0, internal_waste: 0 }",
        stage_words: [32768, 11264, 0, 0],
        potential: 43264,
        trace_fnv: 0x73c6069122b5599c,
    },
    Pin {
        variant: "full",
        manager: ManagerKind::PagesThm2,
        m: 1 << 14,
        log_n: 10,
        c: 20,
        report: "pf vs pages-thm2: HeapSummary { c: 20, live_bound: 16384, heap_size: 34816, peak_live: 16384, waste_factor: 2.125, moved_fraction: 0.04774790502793296, rounds: 9, objects_placed: 22612, objects_freed: 19231, objects_moved: 1882, words_placed: 45824, words_moved: 2188, external_waste: 20912, ghost_words: 2188, internal_waste: 16624 }",
        stage_words: [32768, 13056, 1637, 551],
        potential: 31856,
        trace_fnv: 0x0f26be4535e8b751,
    },
    Pin {
        variant: "baseline",
        manager: ManagerKind::FirstFit,
        m: 1 << 13,
        log_n: 9,
        c: 15,
        report: "pf-baseline vs first-fit: HeapSummary { c: 15, live_bound: 8192, heap_size: 22449, peak_live: 8192, waste_factor: 2.7403564453125, moved_fraction: 0.0, rounds: 8, objects_placed: 11332, objects_freed: 8480, objects_moved: 0, words_placed: 22528, words_moved: 0, external_waste: 14257, ghost_words: 0, internal_waste: 0 }",
        stage_words: [16384, 6144, 0, 0],
        potential: 20864,
        trace_fnv: 0x3887daf3e9e636fb,
    },
    Pin {
        variant: "baseline",
        manager: ManagerKind::PagesThm2,
        m: 1 << 13,
        log_n: 9,
        c: 15,
        report: "pf-baseline vs pages-thm2: HeapSummary { c: 15, live_bound: 8192, heap_size: 17408, peak_live: 8192, waste_factor: 2.125, moved_fraction: 0.06403940886699508, rounds: 8, objects_placed: 11369, objects_freed: 10416, objects_moved: 1664, words_placed: 25984, words_moved: 1664, external_waste: 9472, ghost_words: 1664, internal_waste: 6400 }",
        stage_words: [16384, 9600, 1028, 636],
        potential: 13568,
        trace_fnv: 0xa73dbce42779e2bf,
    },
    Pin {
        variant: "robson-only",
        manager: ManagerKind::FirstFit,
        m: 1 << 12,
        log_n: 8,
        c: 10,
        report: "pf-variant vs first-fit: HeapSummary { c: 10, live_bound: 4096, heap_size: 7661, peak_live: 4096, waste_factor: 1.870361328125, moved_fraction: 0.0, rounds: 7, objects_placed: 5188, objects_freed: 2592, objects_moved: 0, words_placed: 7680, words_moved: 0, external_waste: 3565, ghost_words: 0, internal_waste: 0 }",
        stage_words: [6144, 1536, 0, 0],
        potential: 7360,
        trace_fnv: 0xa1240a4316c7f036,
    },
    Pin {
        variant: "robson-only",
        manager: ManagerKind::PagesThm2,
        m: 1 << 12,
        log_n: 8,
        c: 10,
        report: "pf-variant vs pages-thm2: HeapSummary { c: 10, live_bound: 4096, heap_size: 7680, peak_live: 4096, waste_factor: 1.875, moved_fraction: 0.0, rounds: 7, objects_placed: 5188, objects_freed: 2592, objects_moved: 0, words_placed: 7680, words_moved: 0, external_waste: 3584, ghost_words: 0, internal_waste: 3584 }",
        stage_words: [6144, 1536, 0, 0],
        potential: 7360,
        trace_fnv: 0xde7e31a90cabe212,
    },
    Pin {
        variant: "regimented-only",
        manager: ManagerKind::FirstFit,
        m: 1 << 13,
        log_n: 9,
        c: 15,
        report: "pf-variant vs first-fit: HeapSummary { c: 15, live_bound: 8192, heap_size: 20977, peak_live: 8192, waste_factor: 2.5606689453125, moved_fraction: 0.0, rounds: 8, objects_placed: 11305, objects_freed: 8460, objects_moved: 0, words_placed: 20992, words_moved: 0, external_waste: 13041, ghost_words: 0, internal_waste: 0 }",
        stage_words: [16384, 4608, 0, 0],
        potential: 19968,
        trace_fnv: 0x2b4632e3703d7351,
    },
    Pin {
        variant: "regimented-only",
        manager: ManagerKind::PagesThm2,
        m: 1 << 13,
        log_n: 9,
        c: 15,
        report: "pf-variant vs pages-thm2: HeapSummary { c: 15, live_bound: 8192, heap_size: 13824, peak_live: 8192, waste_factor: 1.6875, moved_fraction: 0.06210049715909091, rounds: 8, objects_placed: 11309, objects_freed: 10115, objects_moved: 1399, words_placed: 22528, words_moved: 1399, external_waste: 6775, ghost_words: 1399, internal_waste: 4763 }",
        stage_words: [16384, 6144, 1028, 371],
        potential: 12160,
        trace_fnv: 0x1667ab7592aec0ab,
    },
    Pin {
        variant: "halves-only",
        manager: ManagerKind::FirstFit,
        m: 1 << 14,
        log_n: 10,
        c: 20,
        report: "pf-variant vs first-fit: HeapSummary { c: 20, live_bound: 16384, heap_size: 47025, peak_live: 16384, waste_factor: 2.87017822265625, moved_fraction: 0.0, rounds: 9, objects_placed: 22666, objects_freed: 16992, objects_moved: 0, words_placed: 47104, words_moved: 0, external_waste: 30641, ghost_words: 0, internal_waste: 0 }",
        stage_words: [32768, 14336, 0, 0],
        potential: 46336,
        trace_fnv: 0xb01ac7f7ae4e4407,
    },
    Pin {
        variant: "halves-only",
        manager: ManagerKind::PagesThm2,
        m: 1 << 14,
        log_n: 10,
        c: 20,
        report: "pf-variant vs pages-thm2: HeapSummary { c: 20, live_bound: 16384, heap_size: 39936, peak_live: 16384, waste_factor: 2.4375, moved_fraction: 0.047118263473053895, rounds: 9, objects_placed: 22725, objects_freed: 19590, objects_moved: 2149, words_placed: 53440, words_moved: 2518, external_waste: 24058, ghost_words: 2518, internal_waste: 18450 }",
        stage_words: [32768, 20672, 1637, 881],
        potential: 37232,
        trace_fnv: 0x7be1a3ac4aca5c8b,
    },
];

#[test]
fn every_pf_variant_reproduces_its_pinned_run() {
    let mut failures = Vec::new();
    for pin in PINS {
        let got = run(pin);
        if got != expected(pin) {
            failures.push(format!(
                "{} vs {} (M={}, log n={}, c={}):\n{got}",
                pin.variant, pin.manager, pin.m, pin.log_n, pin.c
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
