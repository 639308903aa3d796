//! The benchmark's own tests: every workload at a tiny size through the
//! same code path as the measured run, and the command line's handling
//! of bad input.

use std::process::Command;
use std::sync::Mutex;

use perfbench::fleet::FleetSize;
use perfbench::ledger::PER_LAYER;
use perfbench::pf::PfSize;
use perfbench::report::{Outcome, END_TO_END};
use perfbench::search::SearchSize;
use perfbench::{run, Options, Sizes, Workload};

const TINY: Sizes = Sizes {
    pf: PfSize {
        m: 1 << 14,
        log_n: 8,
        c: 20,
    },
    fleet: FleetSize {
        tenants: 300,
        shards: 8,
    },
    search: SearchSize { m: 10, log_n: 2 },
};

/// How far `ledger.coverage_pct` may stray from 100 at tiny sizes, where
/// a run lasts milliseconds and scheduler noise weighs more.
const TINY_COVERAGE_TOLERANCE: f64 = 25.0;

/// Runs are timed, so they take turns rather than share the machine.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny_run(workload: Workload, trace: bool) -> Outcome {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let opts = Options {
        workload,
        seed: 7,
        seconds: 1,
        trace,
    };
    let outcome = run(&opts, &TINY).expect("tiny run completes");
    assert!(outcome.correct, "{workload:?}: {:?}", outcome.mismatches);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted >= 1);
    outcome
}

fn names(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = tiny_run(workload, false);
        let expected: Vec<&str> = END_TO_END.iter().map(|&(name, _)| name).collect();
        assert_eq!(names(&outcome), expected, "{workload:?}");
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{workload:?}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_cover_the_wall() {
    for workload in Workload::ALL {
        let outcome = tiny_run(workload, true);
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(name, _)| name).collect();
        assert_eq!(names(&outcome), expected, "{workload:?}");
        let coverage = outcome.metric("ledger.coverage_pct").expect("reported");
        assert!(
            (coverage - 100.0).abs() <= TINY_COVERAGE_TOLERANCE,
            "{workload:?}: coverage {coverage}%"
        );
        assert_eq!(outcome.metric("failed_frac"), Some(0.0));
    }
}

#[test]
fn layers_a_workload_never_enters_read_zero() {
    let search = tiny_run(Workload::SearchFirstFit, true);
    for name in ["adversary.self_s", "alloc.calls", "heap.engine.self_s"] {
        assert_eq!(search.metric(name), Some(0.0), "{name} on the search");
    }
    let pf = tiny_run(Workload::PfCompacting, true);
    assert!(pf.metric("adversary.calls").unwrap_or(0.0) > 0.0);
    assert_eq!(pf.metric("workload.calls"), Some(0.0));
    assert_eq!(pf.metric("core.exhaustive.levels"), Some(0.0));
    let fleet = tiny_run(Workload::FleetMixed, true);
    assert!(fleet.metric("workload.calls").unwrap_or(0.0) > 0.0);
    assert!(fleet.metric("core.fleet.tenant_p50_us").unwrap_or(0.0) > 0.0);
}

#[test]
fn result_line_is_one_json_object() {
    let outcome = tiny_run(Workload::SearchFirstFit, false);
    let line = outcome.to_json();
    assert!(!line.contains('\n'));
    let json = pcb_json::Json::parse(&line).expect("valid JSON");
    assert_eq!(
        json.get("correct").and_then(pcb_json::Json::as_bool),
        Some(true)
    );
    let wall = json
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("wall_s reported");
    assert_eq!(wall.get("unit").and_then(pcb_json::Json::as_str), Some("s"));
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = pcb_json::Json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(pcb_json::Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(pcb_json::Json::as_str)
                        .unwrap()
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(pcb_json::Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(pcb_json::Json::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    let own: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, own);
}

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn bad_command_lines_fail_cleanly() {
    let cases: &[&[&str]] = &[
        &[],
        &["--workload", "nope"],
        &["--workload", "fleet-mixed", "--seed", "-3"],
        &[
            "--workload",
            "fleet-mixed",
            "--seed",
            "18446744073709551616",
        ],
        &["--workload", "fleet-mixed", "--seed", "abc"],
        &["--workload", "pf-compacting", "--seconds", "0"],
        &["--workload", "pf-compacting", "--seconds", "1.5"],
        &["--workload", "pf-compacting", "--trace", "2"],
        &["--workload", "pf-compacting", "--trace"],
        &["--workload", "pf-compacting", "--workload", "fleet-mixed"],
        &["--workload", "pf-compacting", "--threads", "4"],
        &["--help"],
    ];
    for args in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(stderr.starts_with("perfbench: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn non_utf8_arguments_fail_cleanly() {
    use std::os::unix::ffi::OsStrExt;
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--workload")
        .arg(std::ffi::OsStr::from_bytes(b"\xff"))
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("perfbench: "), "{stderr}");
}
