//! End-to-end tests of the `pcb` command-line interface: every
//! subcommand exercised through the real binary.

use std::process::Command;

fn pcb(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcb"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn bounds_prints_every_bound() {
    let (stdout, _, ok) = pcb(&["bounds", "268435456", "20", "50"]);
    assert!(ok);
    for needle in [
        "thm1 lower bound",
        "thm2 upper bound",
        "robson (P2)",
        "bp11 upper",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
    assert!(stdout.contains("3.17"), "the c=50 landmark");
}

#[test]
fn bounds_rejects_bad_parameters() {
    let (_, stderr, ok) = pcb(&["bounds", "16", "4", "10"]);
    assert!(!ok);
    assert!(stderr.contains("must exceed"), "{stderr}");
}

#[test]
fn figure_emits_csv_and_plot() {
    // Experiments 5 and 7 take seconds even in release builds; CI runs
    // them through `pcb figure` in its "Reproduce the paper" step.
    for (id, header, rows) in [
        ("1", "bp11,c,h,rho", 91),
        ("2", "h,log_n,m,rho", 21),
        ("3", "bp11_upper,c,prior_best,robson_doubled,thm2", 91),
        ("6", "c,h,log_n,m,manager,moved,ratio,waste", 16),
        (
            "9",
            "fraction_of_worst,manager,waste,workload,worst_case_h",
            20,
        ),
    ] {
        let (csv, stderr, ok) = pcb(&["figure", id]);
        assert!(ok, "figure {id}: {stderr}");
        assert_eq!(csv.lines().next(), Some(header), "figure {id}");
        assert_eq!(csv.lines().count(), rows + 1, "figure {id}");
    }

    let (plot, _, ok) = pcb(&["figure", "1", "--plot"]);
    assert!(ok);
    assert!(plot.contains("= thm1-lower"));
    assert!(plot.contains('*'));

    // Unknown ids, `--plot` on an executable experiment, and stray flags
    // are errors, checked before anything runs.
    for args in [
        &["figure", "4"][..],
        &["figure", "8"],
        &["figure"],
        &["figure", "5", "--plot"],
        &["figure", "6", "--plot"],
        &["figure", "7", "--plot"],
        &["figure", "9", "--plot"],
        &["figure", "5", "--robson"],
    ] {
        let (code, stderr) = pcb_status(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

#[test]
fn simulate_reports_the_bound_ratio() {
    let (stdout, _, ok) = pcb(&[
        "simulate",
        "--program",
        "pf",
        "--manager",
        "buddy",
        "--m",
        "8192",
        "--log-n",
        "9",
        "--c",
        "15",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("pf vs buddy"));
    assert!(stdout.contains("theorem 1 bound"));
}

#[test]
fn simulate_report_lines_are_pinned() {
    const PF_FIRST_FIT: &str = "pf vs first-fit: HS = 20785 words, HS/M = 2.537, moved = 0.0000\n\
                                theorem 1 bound h = 1.838; measured/bound = 1.380\n";
    let size = ["--m", "8192", "--log-n", "9", "--c", "20"];
    let cases = [
        ("pf", "first-fit", PF_FIRST_FIT),
        (
            "robson",
            "best-fit",
            "robson vs best-fit: HS = 44545 words, HS/M = 5.438, moved = 0.0000\n",
        ),
        (
            "churn",
            "pages-thm2",
            "churn vs pages-thm2: HS = 10277 words, HS/M = 1.255, moved = 0.0073\n",
        ),
        (
            "pf-baseline",
            "pages-thm2",
            "pf-baseline vs pages-thm2: HS = 18944 words, HS/M = 2.312, moved = 0.0490\n",
        ),
    ];
    for (program, manager, want) in cases {
        let mut args = vec!["simulate", "--program", program, "--manager", manager];
        args.extend(size);
        let (stdout, stderr, ok) = pcb(&args);
        assert!(ok, "{program} vs {manager}: {stderr}");
        assert_eq!(stdout, want, "{program} vs {manager}");
    }

    // The observed path (a streamed trace plus a series) reports the
    // same lines after its own.
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("pinned-report.jsonl");
    let series = dir.join("pinned-report.csv");
    let (trace_str, series_str) = (trace.to_str().unwrap(), series.to_str().unwrap());
    let mut args = vec![
        "record",
        trace_str,
        "--series",
        series_str,
        "--program",
        "pf",
        "--manager",
        "first-fit",
    ];
    args.extend(size);
    let (stdout, stderr, ok) = pcb(&args);
    assert!(ok, "{stderr}");
    assert_eq!(
        stdout,
        format!(
            "trace: 19779 events streamed -> {trace_str}\n\
             series: 8 samples -> {series_str}\n\
             {PF_FIRST_FIT}"
        )
    );
    std::fs::remove_file(trace).ok();
    std::fs::remove_file(series).ok();
}

#[test]
fn simulate_rejects_unknown_manager() {
    let (_, stderr, ok) = pcb(&["simulate", "--manager", "magic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown manager kind"), "{stderr}");
}

#[test]
fn retired_oracle_flags_are_unknown() {
    // The occupancy substrate and the manager mirror have one
    // implementation each; their seed oracles live in the lockstep tests,
    // so neither subcommand accepts a flag to select them.
    for args in [
        ["simulate", "--substrate", "reference"],
        ["fleet", "--mirror", "reference"],
    ] {
        let (_, stderr, ok) = pcb(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn record_then_replay_round_trips() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let path_str = path.to_str().unwrap();
    let (stdout, _, ok) = pcb(&[
        "record",
        path_str,
        "--program",
        "robson",
        "--m",
        "4096",
        "--log-n",
        "6",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("trace:"));
    let (stdout, _, ok) = pcb(&["replay", path_str]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("trace valid"));
    std::fs::remove_file(path).ok();
}

#[test]
fn replay_rejects_garbage() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.jsonl");
    let trace = |events: &str| format!("{{\"c\":0}}\n{events}\n");
    for (doc, why) in [
        ("not a trace".to_owned(), "expected"),
        (
            r#"{"c":0,"events":[{"kind":"round_start","round":0}]}"#.to_owned(),
            "a whole-document JSON trace, a retired format",
        ),
        (
            "{\"c\":0,\"x\":1}\n".to_owned(),
            "not a JSONL trace (the header has keys c, x)",
        ),
        (
            trace(r#"{"kind":"mystery"}"#),
            "trace line 2: unknown event kind `mystery`",
        ),
        (
            trace(r#"{"kind":"placed","id":100000000000000,"addr":0,"size":1}"#),
            "trace invalid at event 0: object id 100000000000000 is out of range",
        ),
        (
            trace(r#"{"kind":"placed","id":0,"addr":4294967295,"size":2}"#),
            "trace invalid at event 0: 2 words at address 4294967295 end past",
        ),
        (
            trace(r#"{"kind":"placed","id":0,"addr":0,"size":18446744073709551615}"#),
            "trace invalid at event 0: ",
        ),
        (
            trace(
                r#"{"kind":"placed","id":0,"addr":0,"size":4}
                   {"kind":"moved","id":0,"to":4294967295}"#,
            ),
            "trace invalid at event 1: 4 words at address 4294967295 end past",
        ),
        (
            trace(
                r#"{"kind":"placed","id":0,"addr":0,"size":4}
                   {"kind":"placed","id":0,"addr":8,"size":4}
                   {"kind":"freed","id":0}"#,
            ),
            "trace invalid at event 1: object o0 is already live",
        ),
    ] {
        std::fs::write(&path, &doc).unwrap();
        // Exit code 1 is a clean error; a panic would exit 101.
        let (code, stderr) = pcb_status(&["replay", path.to_str().unwrap()]);
        assert_eq!(code, Some(1), "{doc}: {stderr}");
        assert!(stderr.starts_with("error: "), "{doc}: {stderr}");
        assert!(stderr.contains(why), "{doc}: {stderr}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn replay_of_the_highest_id_replays_cleanly() {
    // The id → slot table is paged, so the largest id a trace may name
    // costs one page rather than a slot for every id below it (which
    // was 16 GB).
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sparse-id.jsonl");
    std::fs::write(
        &path,
        "{\"c\":0}\n{\"kind\":\"placed\",\"id\":4294967294,\"addr\":0,\"size\":1}\n",
    )
    .unwrap();
    let (stdout, stderr, ok) = pcb(&["replay", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("trace valid: 1 events, final HS = 1 words, 1 live objects"),
        "{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn sweep_rho_lists_feasible_points() {
    let (stdout, _, ok) = pcb(&["sweep", "rho", "268435456", "20", "100"]);
    assert!(ok);
    assert!(stdout.contains("thm1-by-rho"));
    // rho = 1..=6 feasible at c = 100.
    assert_eq!(stdout.lines().filter(|l| l.contains(',')).count(), 7); // header + 6
}

#[test]
fn worst_case_matches_the_library() {
    let (stdout, _, ok) = pcb(&["worst-case", "6", "1"]);
    assert!(ok);
    assert!(stdout.contains("HS = 9 words"), "{stdout}");
    // Oversized parameters are refused rather than hanging.
    let (_, stderr, ok) = pcb(&["worst-case", "4096", "8"]);
    assert!(!ok);
    assert!(stderr.contains("toy-scale"), "{stderr}");
}

#[test]
fn worst_case_supports_next_fit() {
    let (stdout, _, ok) = pcb(&["worst-case", "6", "1", "next-fit"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("next-fit"), "{stdout}");
    assert!(stdout.contains("HS = 9 words"), "{stdout}");
    assert!(stdout.contains("peak frontier"), "{stdout}");
    let (_, stderr, ok) = pcb(&["worst-case", "6", "1", "worst-fit"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy"), "{stderr}");
}

#[test]
fn worst_case_reports_an_exceeded_state_cap_gracefully() {
    let (_, stderr, ok) = pcb(&["worst-case", "8", "2", "--max-states", "10"]);
    assert!(!ok);
    assert!(stderr.contains("parameters not toy enough"), "{stderr}");
    assert!(stderr.contains("state space exceeded"), "{stderr}");
    // A refusal, not a crash: no panic message reaches the user.
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn record_surfaces_injected_trace_sink_faults_as_a_clean_exit() {
    // A failing trace sink (here: deterministic chaos injection at the
    // trace-io site) must become a readable non-zero exit, not a panic
    // and not a silently-truncated trace reported as success.
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos-trace.jsonl");
    let (stdout, stderr, ok) = pcb(&[
        "record",
        path.to_str().unwrap(),
        "--program",
        "churn",
        "--m",
        "4096",
        "--chaos",
        "seed=5,trace-io=1000000",
    ]);
    assert!(!ok, "a failing sink must fail the run:\n{stdout}");
    assert!(stderr.contains("injected trace-sink fault"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn simulate_rejects_malformed_chaos_specs() {
    let (_, stderr, ok) = pcb(&["simulate", "--chaos", "seed=zap"]);
    assert!(!ok);
    assert!(stderr.contains("fault plan"), "{stderr}");
}

#[test]
fn fleet_quarantines_injected_panics_and_reports_them() {
    let (stdout, _, ok) = pcb(&[
        "fleet",
        "--tenants",
        "64",
        "--shards",
        "8",
        "--m-min",
        "128",
        "--m-max",
        "1024",
        "--chaos",
        "seed=7,tenant-panic=200000",
    ]);
    assert!(ok, "a poisoned fleet still completes:\n{stdout}");
    assert!(stdout.contains("tenants quarantined"), "{stdout}");
    assert!(stdout.contains("panic"), "{stdout}");
}

#[test]
fn fleet_checkpoint_pause_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet-ck.json");
    let path_str = path.to_str().unwrap();
    std::fs::remove_file(&path).ok();
    let base = [
        "fleet",
        "--tenants",
        "64",
        "--shards",
        "8",
        "--m-min",
        "128",
        "--m-max",
        "1024",
        "--json",
    ];
    let (full, _, ok) = pcb(&base);
    assert!(ok);
    let mut paused: Vec<&str> = base.to_vec();
    paused.extend([
        "--checkpoint",
        path_str,
        "--checkpoint-every",
        "2",
        "--stop-after",
        "3",
    ]);
    let (_, stderr, ok) = pcb(&paused);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("paused after 3/8 shards"), "{stderr}");
    let mut resumed: Vec<&str> = base.to_vec();
    resumed.extend(["--checkpoint", path_str, "--resume"]);
    let (out, stderr, ok) = pcb(&resumed);
    assert!(ok, "{stderr}");
    assert_eq!(out, full, "resumed JSON differs from the uninterrupted run");
    std::fs::remove_file(path).ok();
}

/// The metrics file is derived from the report, so a fleet paused
/// without `--metrics-out` resumes with it and writes the uninterrupted
/// run's file byte-for-byte, quarantine counters included.
#[test]
fn fleet_resume_adds_metrics_out_and_writes_the_uninterrupted_file() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("fleet-metrics-resume-ck.json");
    let full = dir.join("fleet-metrics-full.json");
    let resumed = dir.join("fleet-metrics-resumed.json");
    std::fs::remove_file(&ck).ok();
    let base = [
        "fleet",
        "--tenants",
        "256",
        "--shards",
        "16",
        "--m-min",
        "128",
        "--m-max",
        "1024",
        "--chaos",
        "seed=7,tenant-panic=20000",
    ];
    let with = |extra: &[&str]| {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(extra);
        let (stdout, stderr, ok) = pcb(&args);
        assert!(ok, "{args:?}: {stderr}");
        (stdout, stderr)
    };
    let (report, _) = with(&["--metrics-out", full.to_str().unwrap()]);
    let ck_path = ck.to_str().unwrap();
    let (_, stderr) = with(&[
        "--checkpoint",
        ck_path,
        "--checkpoint-every",
        "2",
        "--stop-after",
        "6",
    ]);
    assert!(stderr.contains("paused after 6/16 shards"), "{stderr}");
    let (resumed_report, _) = with(&[
        "--checkpoint",
        ck_path,
        "--resume",
        "--metrics-out",
        resumed.to_str().unwrap(),
    ]);
    assert_eq!(resumed_report, report);
    let text = std::fs::read_to_string(&full).unwrap();
    assert!(text.contains("\"chaos.quarantined.panic\""), "{text}");
    assert_eq!(std::fs::read_to_string(&resumed).unwrap(), text);
    for path in [ck, full, resumed] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn resume_without_a_checkpoint_path_is_an_error() {
    let (_, stderr, ok) = pcb(&["fleet", "--resume"]);
    assert!(!ok);
    assert!(stderr.contains("--resume needs --checkpoint"), "{stderr}");
    let (_, stderr, ok) = pcb(&["worst-case", "6", "1", "--resume"]);
    assert!(!ok);
    assert!(stderr.contains("--resume needs --checkpoint"), "{stderr}");
}

#[test]
fn worst_case_checkpoint_pause_resume_matches_the_pinned_constant() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wc-ck.json");
    let path_str = path.to_str().unwrap();
    std::fs::remove_file(&path).ok();
    let (_, stderr, ok) = pcb(&[
        "worst-case",
        "6",
        "1",
        "--checkpoint",
        path_str,
        "--stop-after",
        "4",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("paused after 4 BFS levels"), "{stderr}");
    let (stdout, _, ok) = pcb(&["worst-case", "6", "1", "--checkpoint", path_str, "--resume"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("HS = 9 words"), "{stdout}");
    std::fs::remove_file(path).ok();
}

/// A checkpointed search heartbeats exactly like a plain one: one pulse
/// per BFS level on the `--progress-out` stream, and the same verdict.
#[test]
fn worst_case_checkpoint_keeps_the_heartbeat() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let pulses = |checkpoint: bool| {
        let (ck, out) = (dir.join("wc-hb-ck.json"), dir.join("wc-hb-pulses.jsonl"));
        std::fs::remove_file(&ck).ok();
        std::fs::remove_file(&out).ok();
        let mut args = vec!["worst-case", "6", "1", "--progress=0"];
        args.extend(["--progress-out", out.to_str().unwrap()]);
        if checkpoint {
            args.extend(["--checkpoint", ck.to_str().unwrap()]);
        }
        let (stdout, stderr, ok) = pcb(&args);
        assert!(ok, "{args:?}: {stderr}");
        let pulses = std::fs::read_to_string(&out).unwrap_or_default();
        std::fs::remove_file(&ck).ok();
        std::fs::remove_file(&out).ok();
        (stdout, pulses.lines().count())
    };
    let (plain, plain_pulses) = pulses(false);
    let (checkpointed, checkpointed_pulses) = pulses(true);
    assert_eq!(plain, checkpointed);
    assert_eq!(plain_pulses, 20, "one pulse per BFS level");
    assert_eq!(checkpointed_pulses, plain_pulses);
}

#[test]
fn no_arguments_prints_usage() {
    let (_, stderr, ok) = pcb(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn unknown_commands_are_errors() {
    // `bench` was retired along with its artifacts; like any unknown
    // command it prints the usage and fails with an `error:` line.
    let (code, stderr) = pcb_status(&["bench", "diff", "x"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(
        stderr.contains("error: unknown command `bench`"),
        "{stderr}"
    );
}

#[test]
fn simulate_profile_prints_every_engine_phase() {
    let (stdout, _, ok) = pcb(&[
        "simulate",
        "--m",
        "8192",
        "--log-n",
        "9",
        "--c",
        "15",
        "--profile",
    ]);
    assert!(ok, "{stdout}");
    // The profile table aggregates the engine phases.
    for phase in ["engine.run", "engine.alloc", "engine.free"] {
        assert!(stdout.contains(phase), "missing {phase} in:\n{stdout}");
    }
}

/// `--profile --metrics-out` writes the plain `--metrics-out` file plus
/// the span family and nothing else, and the file's spans are the ones
/// the printed table shows: the main thread's spans are flushed before
/// the export.
#[test]
fn simulate_profile_metrics_out_adds_only_the_span_family() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let plain_path = dir.join("sim-plain-metrics.json");
    let profiled_path = dir.join("sim-profiled-metrics.json");
    let base = [
        "simulate",
        "--manager",
        "pages-thm2",
        "--m",
        "8192",
        "--log-n",
        "9",
        "--c",
        "15",
        "--metrics-out",
    ];
    let run = |path: &std::path::Path, extra: &[&str]| {
        let mut args: Vec<&str> = base.to_vec();
        args.push(path.to_str().unwrap());
        args.extend(extra);
        let (stdout, stderr, ok) = pcb(&args);
        assert!(ok, "{stderr}");
        let text = std::fs::read_to_string(path).expect("--metrics-out wrote its file");
        std::fs::remove_file(path).ok();
        (stdout, pcb_json::Json::parse(&text).expect("valid JSON"))
    };
    let (_, plain) = run(&plain_path, &[]);
    let (table, profiled) = run(&profiled_path, &["--profile"]);

    for family in ["counters", "gauges", "histograms"] {
        let members = |file: &pcb_json::Json| match file.get(family) {
            Some(pcb_json::Json::Object(members)) => members.clone(),
            other => panic!("{family} is not an object: {other:?}"),
        };
        let mut beyond_spans = members(&profiled);
        beyond_spans.retain(|name, _| !name.starts_with("span."));
        assert_eq!(beyond_spans, members(&plain), "{family}");
    }
    let compacts = profiled
        .get("histograms")
        .and_then(|h| h.get("span.engine.compact"))
        .and_then(|h| h.get("count"))
        .and_then(pcb_json::Json::as_u64)
        .expect("span.engine.compact in the file");
    let row = table
        .lines()
        .find(|line| line.starts_with("engine.compact "))
        .unwrap_or_else(|| panic!("no engine.compact row in:\n{table}"));
    let printed: u64 = row.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(compacts, printed, "file and table disagree:\n{table}");
}

/// Flags a command has no use for are unknown to it: `--trace-out` went
/// with the span buffer (the spans fold into the metric registry),
/// `--metrics` went with the fleet report's embedded registry (every
/// command exports its metrics through `--metrics-out`), and `--stats`
/// went with the separate manager-counter print path (the counters
/// travel in `--metrics-out`).
#[test]
fn flags_without_a_use_are_unknown() {
    for (args, flag) in [
        (&["simulate", "--trace-out", "x"][..], "--trace-out"),
        (&["simulate", "--metrics"], "--metrics"),
        (&["simulate", "--stats"], "--stats"),
        (&["worst-case", "6", "1", "--metrics"], "--metrics"),
        (&["fleet", "--metrics"], "--metrics"),
    ] {
        let (code, stderr) = pcb_status(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}\n")),
            "{args:?}: {stderr}"
        );
    }
}

/// The heartbeat is a pure side channel: enabling it (even at maximum
/// cadence, with a JSONL stream attached) changes nothing on stdout.
#[test]
fn fleet_heartbeat_is_a_pure_side_channel() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let pulses = dir.join("fleet-pulses.jsonl");
    let pulses_str = pulses.to_str().unwrap();
    std::fs::remove_file(&pulses).ok();
    let base = [
        "fleet",
        "--tenants",
        "64",
        "--shards",
        "8",
        "--m-min",
        "128",
        "--m-max",
        "1024",
        "--json",
    ];
    let mut loud: Vec<&str> = base.to_vec();
    loud.extend(["--progress=0", "--progress-out", pulses_str]);
    let (loud_out, loud_err, ok) = pcb(&loud);
    assert!(ok, "{loud_err}");
    assert!(loud_err.contains("[pcb fleet]"), "{loud_err}");
    let mut quiet: Vec<&str> = base.to_vec();
    quiet.push("--no-progress");
    let (quiet_out, _, ok) = pcb(&quiet);
    assert!(ok);
    assert_eq!(loud_out, quiet_out, "heartbeat leaked into the report");

    // Every streamed pulse is one self-contained JSON object.
    let stream = std::fs::read_to_string(&pulses).unwrap();
    assert!(!stream.is_empty(), "stream file never written");
    for line in stream.lines() {
        let pulse = pcb_json::Json::parse(line).expect("pulse is valid JSON");
        let pcb_json::Json::Object(fields) = &pulse else {
            panic!("pulse must be an object: {line}")
        };
        assert_eq!(
            fields.get("label"),
            Some(&pcb_json::Json::Str("fleet".into())),
            "{line}"
        );
        assert!(fields.contains_key("done"), "{line}");
        assert!(fields.contains_key("waste_vs_thm1"), "{line}");
    }
    std::fs::remove_file(pulses).ok();
}

/// The fleet report does not depend on instrumentation: `--json` and the
/// text report are byte-identical with and without `--metrics-out`.
#[test]
fn fleet_report_is_the_same_with_and_without_metrics_out() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet-report-identity.json");
    let base = [
        "fleet",
        "--tenants",
        "64",
        "--shards",
        "8",
        "--m-min",
        "128",
        "--m-max",
        "1024",
    ];
    for json in [true, false] {
        let mut args: Vec<&str> = base.to_vec();
        if json {
            args.push("--json");
        }
        let (plain, stderr, ok) = pcb(&args);
        assert!(ok, "{stderr}");
        args.extend(["--metrics-out", path.to_str().unwrap()]);
        let (instrumented, stderr, ok) = pcb(&args);
        assert!(ok, "{stderr}");
        assert!(stderr.contains("metrics:"), "{stderr}");
        assert_eq!(instrumented, plain, "--json: {json}");
    }
    std::fs::remove_file(path).ok();
}

/// `--metrics-out` writes pcb-json whatever the file is called, and the
/// file's totals are the report's own numbers.
#[test]
fn fleet_metrics_out_is_json_and_matches_the_report() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let prom = dir.join("fleet-metrics.prom");
    let json = dir.join("fleet-metrics.json");
    std::fs::remove_file(&prom).ok();
    std::fs::remove_file(&json).ok();
    let base = [
        "fleet",
        "--tenants",
        "64",
        "--shards",
        "8",
        "--m-min",
        "128",
        "--m-max",
        "1024",
        "--json",
    ];

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--metrics-out", json.to_str().unwrap()]);
    let (stdout, stderr, ok) = pcb(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("metrics:"), "{stderr}");
    let text = std::fs::read_to_string(&json).unwrap();
    let file = pcb_json::Json::parse(&text).expect("metrics file is valid JSON");
    let report = pcb_json::Json::parse(&stdout).expect("report is valid JSON");
    let number = |json: &pcb_json::Json, key: &str| {
        json.get(key)
            .and_then(pcb_json::Json::as_u64)
            .unwrap_or_else(|| panic!("{key} in {json}"))
    };
    let Some(counters_json @ pcb_json::Json::Object(counters)) = file.get("counters") else {
        panic!("no counters in {text}")
    };
    let counter = |name: &str| number(counters_json, name);
    assert_eq!(
        counter("fleet.objects_placed"),
        number(&report, "objects_placed")
    );
    assert_eq!(
        counter("fleet.words_placed"),
        number(&report, "words_placed")
    );
    let tenants: u64 = counters
        .iter()
        .filter(|(name, _)| name.starts_with("fleet.tenants."))
        .map(|(_, count)| count.as_u64().expect("a u64 counter"))
        .sum();
    assert_eq!(tenants, number(&report, "tenants"), "each tenant once");

    // The file's name picks no format: a `.prom` path gets the same bytes.
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--metrics-out", prom.to_str().unwrap()]);
    let (_, stderr, ok) = pcb(&args);
    assert!(ok, "{stderr}");
    assert_eq!(std::fs::read_to_string(&prom).unwrap(), text);
    std::fs::remove_file(prom).ok();
    std::fs::remove_file(json).ok();
}

/// Manager counters reach `--metrics-out` through the one switch: a
/// plain `simulate --metrics-out` carries first-fit's placement counter
/// and its request-size histogram, with no other flag.
#[test]
fn simulate_metrics_out_carries_the_manager_counters() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sim-manager-counters.json");
    std::fs::remove_file(&path).ok();
    let args = [
        "simulate",
        "--manager",
        "first-fit",
        "--metrics-out",
        path.to_str().unwrap(),
    ];
    let (_, stderr, ok) = pcb(&args);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("--metrics-out wrote its file");
    std::fs::remove_file(&path).ok();
    let file = pcb_json::Json::parse(&text).expect("metrics file is valid JSON");
    let counter = |name: &str| {
        file.get("counters")
            .and_then(|c| c.get(name))
            .and_then(pcb_json::Json::as_u64)
            .unwrap_or_else(|| panic!("counter {name} in {text}"))
    };
    assert_eq!(
        counter("freelist.placements"),
        counter("engine.objects_placed")
    );
    let sizes = file
        .get("histograms")
        .and_then(|h| h.get("alloc.size"))
        .unwrap_or_else(|| panic!("alloc.size histogram in {text}"));
    assert_eq!(
        sizes.get("count").and_then(pcb_json::Json::as_u64),
        Some(counter("engine.objects_placed"))
    );
}

/// FNV-1a (64-bit), the digest `manager_report_pins.rs` pins reports with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `args` with `--metrics-out <dir>/<file>` appended and returns the
/// FNV-1a digest of the file it wrote.
fn metrics_out_digest(args: &[&str], file: &str) -> u64 {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    std::fs::remove_file(&path).ok();
    let mut args = args.to_vec();
    args.extend(["--metrics-out", path.to_str().unwrap()]);
    let (_, stderr, ok) = pcb(&args);
    assert!(ok, "{args:?}: {stderr}");
    let bytes = std::fs::read(&path).expect("--metrics-out wrote its file");
    std::fs::remove_file(&path).ok();
    fnv1a(&bytes)
}

/// The `simulate --metrics-out x.json` file of `P_F` against three
/// managers, pinned by digest: engine totals and everything the manager
/// counted in its fields (coalesce merges, TLSF bucket scans, serve
/// counts, page evictions, size histograms) land in it, so any change to
/// what a run publishes, or to a value it publishes, moves a digest.
#[test]
fn simulate_metrics_out_reproduces_its_pinned_digests() {
    const PINS: &[(&str, u64)] = &[
        ("first-fit", 0x9ab2b6d659d62e09),
        ("tlsf", 0xb231709f832021b0),
        ("pages-thm2", 0xf2c07483502cc3cd),
    ];
    let got: Vec<(&str, u64)> = PINS
        .iter()
        .map(|&(manager, _)| {
            let args = ["simulate", "--program", "pf", "--manager", manager];
            let file = format!("sim-metrics-{manager}.json");
            (manager, metrics_out_digest(&args, &file))
        })
        .collect();
    if got != PINS {
        let table: String = got
            .iter()
            .map(|(m, d)| format!("        ({m:?}, {d:#018x}),\n"))
            .collect();
        panic!("simulate --metrics-out moved; the current table is:\n{table}");
    }
}

/// The `worst-case 10 2 --threads 1 --metrics-out y.json` file, pinned by
/// digest; `exhaustive.payload_words` reads the interned payload of the
/// finished search (706473 words). The search is pinned at one thread
/// only: the
/// `exhaustive.resident_bytes` gauge sums the dedup shards' table
/// capacities, and the shard count follows the thread count by design
/// (2944 KiB at `--threads 1`, 3072 KiB at `--threads 4`).
#[test]
fn worst_case_metrics_out_reproduces_its_pinned_digest() {
    const PIN: u64 = 0x3d1cf68eb6eedf7c;
    let args = ["worst-case", "10", "2", "--threads", "1"];
    let digest = metrics_out_digest(&args, "worst-case-metrics.json");
    assert_eq!(
        digest, PIN,
        "worst-case --metrics-out moved: now {digest:#018x}"
    );
}

/// A `worst-case --metrics-out` paused at level 30 and resumed exports
/// the same search gauges as the uninterrupted run: restoring the
/// checkpoint raises the gauges to the high-water marks the paused levels
/// reached (the widest frontier comes before level 30).
/// `exhaustive.resident_bytes` may differ, as it follows allocator
/// history.
#[test]
fn worst_case_metrics_out_survives_pause_and_resume() {
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("wc-metrics-ck.json");
    std::fs::remove_file(&checkpoint).ok();
    let gauges = |args: &[&str], file: &str| -> Vec<String> {
        let path = dir.join(file);
        let mut args = args.to_vec();
        args.extend(["--metrics-out", path.to_str().unwrap()]);
        let (_, stderr, ok) = pcb(&args);
        assert!(ok, "{args:?}: {stderr}");
        let json = std::fs::read_to_string(&path).expect("--metrics-out wrote its file");
        std::fs::remove_file(&path).ok();
        [
            "frontier_states",
            "levels",
            "interned_states",
            "payload_words",
        ]
        .iter()
        .map(|gauge| {
            let key = format!("\"exhaustive.{gauge}\":");
            let at = json.find(&key).unwrap_or_else(|| panic!("{key} in {json}")) + key.len();
            let value: String = json[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            format!("{gauge}={value}")
        })
        .collect()
    };
    let base = ["worst-case", "10", "2", "--threads", "1"];
    let full = gauges(&base, "wc-metrics-full.json");
    assert!(
        full.contains(&"frontier_states=3885".to_owned()),
        "{full:?}"
    );
    let ck = checkpoint.to_str().unwrap();
    let mut paused = base.to_vec();
    paused.extend([
        "--checkpoint",
        ck,
        "--checkpoint-every",
        "1",
        "--stop-after",
        "30",
    ]);
    let (_, stderr, ok) = pcb(&paused);
    assert!(ok && stderr.contains("paused after 30"), "{stderr}");
    let mut resumed = base.to_vec();
    resumed.extend(["--checkpoint", ck, "--resume"]);
    assert_eq!(gauges(&resumed, "wc-metrics-resumed.json"), full);
    std::fs::remove_file(checkpoint).ok();
}

/// `worst-case --progress` streams BFS frontier pulses on stderr without
/// touching the verdict on stdout.
#[test]
fn worst_case_progress_reports_frontier_levels() {
    let (plain, _, ok) = pcb(&["worst-case", "6", "1"]);
    assert!(ok);
    let (loud, stderr, ok) = pcb(&["worst-case", "6", "1", "--progress=0"]);
    assert!(ok, "{stderr}");
    assert_eq!(plain, loud, "heartbeat leaked into the verdict");
    assert!(stderr.contains("[pcb worst-case]"), "{stderr}");
    assert!(stderr.contains("frontier_states"), "{stderr}");
}

/// Runs the binary and returns its exit code and stderr.
fn pcb_status(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcb"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A heartbeat cadence with no `Duration` (infinite, NaN, too large) is
/// a flag error on every subcommand that takes `--progress`, not a panic.
#[test]
fn progress_cadences_without_a_duration_are_flag_errors() {
    for sub in [
        &["simulate"][..],
        &["fleet", "--tenants", "10"],
        &["worst-case", "6", "1"],
    ] {
        for cadence in ["--progress=inf", "--progress=1e300", "--progress=NaN"] {
            let args: Vec<&str> = sub.iter().copied().chain([cadence]).collect();
            let (code, stderr) = pcb_status(&args);
            assert_eq!(code, Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.starts_with("error: --progress: "),
                "{args:?}: {stderr}"
            );
        }
    }
}

/// The CLI slice of the untrusted-input contract: every value-taking flag
/// of `simulate`, `fleet` and `worst-case`, given no value or a value it
/// cannot parse, exits 1 with an error naming the flag. Path-valued flags
/// (`None`) accept any string, so only the missing value applies.
#[test]
fn every_value_flag_rejects_missing_and_unparsable_values() {
    type Flags = &'static [(&'static str, Option<&'static str>)];
    let table: &[(&[&str], Flags)] = &[
        (
            &["simulate"],
            &[
                ("--program", Some("nope")),
                ("--manager", Some("nope")),
                ("--m", Some("x")),
                ("--log-n", Some("x")),
                ("--c", Some("x")),
                ("--rounds", Some("x")),
                ("--allocs", Some("x")),
                ("--every", Some("x")),
                ("--chaos", Some("nope")),
                ("--paranoia", Some("x")),
                ("--series", None),
                ("--metrics-out", None),
                ("--progress-out", None),
            ],
        ),
        (
            &["fleet"],
            &[
                ("--tenants", Some("x")),
                ("--shards", Some("x")),
                ("--manager", Some("nope")),
                ("--seed", Some("x")),
                ("--m-min", Some("x")),
                ("--m-max", Some("x")),
                ("--theta", Some("x")),
                ("--rounds", Some("x")),
                ("--allocs", Some("x")),
                ("--mix", Some("1,x,1,1")),
                ("--c", Some("x")),
                ("--threads", Some("x")),
                ("--chaos", Some("nope")),
                ("--paranoia", Some("x")),
                ("--checkpoint-every", Some("x")),
                ("--stop-after", Some("x")),
                ("--checkpoint", None),
                ("--metrics-out", None),
                ("--progress-out", None),
            ],
        ),
        (
            &["worst-case", "6", "1"],
            &[
                ("--max-states", Some("x")),
                ("--threads", Some("x")),
                ("--checkpoint-every", Some("x")),
                ("--stop-after", Some("x")),
                ("--checkpoint", None),
                ("--metrics-out", None),
                ("--progress-out", None),
            ],
        ),
    ];
    for (sub, flags) in table {
        for &(flag, bad) in *flags {
            // The flag last with nothing after it, then with a bad value.
            for value in std::iter::once(None).chain(bad.map(Some)) {
                let args: Vec<&str> = sub.iter().copied().chain([flag]).chain(value).collect();
                let (code, stderr) = pcb_status(&args);
                assert_eq!(code, Some(1), "{args:?}: {stderr}");
                assert!(
                    stderr.starts_with(&format!("error: {flag}")),
                    "{args:?}: {stderr}"
                );
            }
        }
    }
}

/// The other CLI slice of the untrusted-input contract: flag values that
/// parse but make no sense. Each row exits 0 or 1 (never a panic's 101)
/// with the pinned start of stderr; `CK` stands for a fresh checkpoint
/// path.
#[test]
fn absurd_but_parseable_flag_values_exit_cleanly() {
    let invalid = "error: invalid parameters: ";
    let fleet = "error: invalid fleet configuration: ";
    let table: &[(&str, i32, &str)] = &[
        (
            "simulate --m 0",
            1,
            "error: invalid parameters: M = 0 must exceed n = 1024",
        ),
        (
            "simulate --m 3",
            1,
            "error: invalid parameters: M = 3 must exceed n = 1024",
        ),
        (
            "simulate --log-n 0",
            1,
            "error: invalid parameters: n must exceed 1",
        ),
        (
            "simulate --log-n 64",
            1,
            "error: invalid parameters: log_n = 64 is beyond",
        ),
        (
            "simulate --c 0",
            1,
            "error: invalid parameters: c = 0 must exceed 1",
        ),
        (
            "simulate --c 1",
            1,
            "error: invalid parameters: c = 1 must exceed 1",
        ),
        ("simulate --series /dev/null --every 0", 0, ""),
        (
            "simulate --m 8192 --log-n 9 --c 15 --every 5",
            1,
            "error: --every needs --series <file>",
        ),
        ("simulate --program churn --rounds 0", 0, ""),
        ("simulate --program churn --allocs 0", 0, ""),
        ("simulate --paranoia 0", 0, ""),
        ("simulate --m 64 --log-n 10", 1, invalid),
        ("simulate --manager pages-thm2 --c 1", 1, invalid),
        ("simulate --manager buddy --m 1000", 1, invalid),
        ("simulate --chaos seed=1", 0, ""),
        (
            "fleet --tenants 0",
            1,
            "error: invalid fleet configuration: tenants must be >= 1",
        ),
        ("fleet --tenants 10 --shards 0", 0, "ran 10 tenants in "),
        (
            "fleet --tenants 10 --theta NaN",
            1,
            "error: invalid fleet configuration: zipf_theta=NaN",
        ),
        (
            "fleet --tenants 10 --theta -1",
            1,
            "error: invalid fleet configuration: zipf_theta=-1",
        ),
        (
            "fleet --tenants 10 --m-min 4096 --m-max 16",
            1,
            "error: invalid fleet configuration: m_max=16",
        ),
        (
            "fleet --tenants 10 --m-min 0",
            1,
            "error: invalid fleet configuration: m_min=0",
        ),
        (
            "fleet --tenants 10 --checkpoint CK --checkpoint-every 0",
            0,
            "ran 10 tenants in ",
        ),
        (
            "fleet --tenants 10 --checkpoint CK --stop-after 0",
            0,
            "paused after 0/10 shards",
        ),
        (
            "fleet --tenants 10 --mix 0,0,0,0",
            1,
            "error: invalid fleet configuration: all mix weights are zero",
        ),
        ("fleet --tenants 10 --rounds 0", 1, fleet),
        ("fleet --tenants 10 --allocs 0", 1, fleet),
        (
            "fleet --tenants 10 --c 0",
            1,
            "error: invalid fleet configuration: tenant 0: invalid parameters: c = 0",
        ),
        ("fleet --tenants 10 --c 1", 1, fleet),
        ("fleet --tenants 10 --paranoia 0", 0, "ran 10 tenants in "),
        (
            "worst-case 6 1 --max-states 0",
            1,
            "error: parameters not toy enough: state space exceeded 0",
        ),
        ("worst-case 0 0", 1, invalid),
        ("worst-case 6 1 --checkpoint CK --checkpoint-every 0", 0, ""),
        (
            "worst-case 6 1 --checkpoint CK --stop-after 0",
            0,
            "paused after 0 BFS levels",
        ),
        ("worst-case 6 1 --threads 0", 0, ""),
        (
            "sweep thm1-lower c 0 0 0 0",
            1,
            "error: invalid parameters: n must exceed 1",
        ),
        (
            "sweep thm1-lower n 0 0 0 0",
            1,
            "error: invalid parameters: n must exceed 1",
        ),
        ("sweep thm1-lower c 65536 10 20 10", 1, "error: empty range"),
        (
            "sweep thm1-lower c 65536 10 0 1",
            1,
            "error: invalid parameters: c = 0 must exceed 1",
        ),
        ("sweep thm1-lower c 65536 10 1 2", 0, ""),
        ("sweep rho 0 0 0", 1, invalid),
        ("bounds 0 0 0", 1, invalid),
        (
            "bounds 65536 64 20",
            1,
            "error: invalid parameters: log_n = 64 is beyond",
        ),
    ];
    let dir = std::env::temp_dir().join("pcb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("absurd-ck.json");
    let ck = ck.to_str().unwrap();
    for &(row, code, prefix) in table {
        std::fs::remove_file(ck).ok();
        let args: Vec<&str> = row
            .split(' ')
            .map(|arg| if arg == "CK" { ck } else { arg })
            .collect();
        let (status, stderr) = pcb_status(&args);
        assert_eq!(status, Some(code), "{row}: {stderr}");
        assert!(stderr.starts_with(prefix), "{row}: {stderr}");
    }
    std::fs::remove_file(ck).ok();
}
