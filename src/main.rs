//! `pcb` — the command-line front end to the partial-compaction
//! reproduction.
//!
//! ```text
//! pcb bounds <M_words> <log2_n> <c>         evaluate every bound
//! pcb figure <1|2|3>                        print a figure's CSV series
//! pcb simulate [options]                    run an adversary or workload
//! pcb record <file.json> [options]          record a run as a trace
//! pcb replay <file.json>                    re-validate a recorded trace
//! pcb fleet [options]                       simulate a fleet of tenant heaps
//! ```
//!
//! `simulate`/`record` options:
//!
//! ```text
//! --program pf|pf-baseline|robson|churn|ramp   (default pf)
//! --manager <name>                             (default first-fit)
//! --m <words>  --log-n <k>  --c <c>            (default 65536, 10, 20)
//! --map                                        print a heap heat map
//! --validate                                   run the Claim 4.16 checks
//! --series <file.csv|file.json>                per-round metrics to a file
//! --every <k>                                  sample cadence (default 1)
//! --stats                                      print manager counters
//! --trace-out <file.json>                      engine span trace (Perfetto)
//! --profile                                    print the span profile table
//! --progress[=secs]                            heartbeat on stderr
//! --progress-out <file.jsonl>                  heartbeat JSONL stream
//! --metrics                                    collect the metric plane
//! --metrics-out <file>                         write it (Prometheus text,
//!                                              or pcb-json for .json)
//! ```
//!
//! `bench diff` compares a fresh benchmark artifact against a checked-in
//! baseline: structure and identity fields strictly, timing fields within
//! `--tolerance` percent, and host metadata (`smoke`/`threads`/
//! `host_cores`) gating whether timing is compared at all.
//!
//! `record` writes the paper's JSON trace format, or a streaming JSONL
//! trace (one event per line, constant memory) when the target ends in
//! `.jsonl`; `replay` accepts both.

use std::process::ExitCode;

use partial_compaction::heap::{heat_map_rows, Execution, Heap, Program, TraceRecorder};
use partial_compaction::metrics::spans;
use partial_compaction::progress::{Heartbeat, ProgressMode, ProgressOptions};
use partial_compaction::workload::{tenant_by_kind, MixWeights, TenantShape};
use partial_compaction::{
    benchdiff, bounds, figures, fleet, metrics, ManagerKind, Params, PfConfig, PfProgram,
};
use partial_compaction::{Observers, RunConfig, TimeSeries, TraceWriter};
use partial_compaction::{PfVariant, RobsonProgram};
use pcb_json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("figure") => cmd_figure(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..], None),
        Some("record") => {
            if args.len() < 2 {
                Err("record needs a target file".into())
            } else {
                cmd_simulate(&args[2..], Some(args[1].clone()))
            }
        }
        Some("replay") => cmd_replay(&args[1..]),
        Some("bench") => match cmd_bench(&args[1..]) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("worst-case") => cmd_worst_case(&args[1..]),
        Some("reproduce") => {
            let checks = partial_compaction::reproduce::all_checks();
            print!("{}", partial_compaction::reproduce::render_table(&checks));
            if checks.iter().all(|c| c.pass) {
                Ok(())
            } else {
                Err("some reproduction checks failed".into())
            }
        }
        _ => {
            eprint!("{}", USAGE);
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  pcb bounds <M_words> <log2_n> <c>
  pcb figure <1|2|3> [--plot]
  pcb simulate [--program pf|pf-baseline|robson|churn|ramp|replay]
               [--manager <name>] [--m <words>] [--log-n <k>] [--c <c>]
               [--rounds <k>] [--allocs <k>] [--map] [--validate]
               [--series <file>] [--every <k>] [--stats]
               [--chaos <spec>] [--paranoia <k>]
               [--progress[=secs]] [--progress-out <file.jsonl>]
               [--metrics] [--metrics-out <file>]
  pcb record <file.json|file.jsonl> [simulate options]
  pcb replay <file.json|file.jsonl>
  pcb fleet [--tenants <n>] [--shards <n>] [--manager <name>]
            [--seed <s>] [--m-min <words>] [--m-max <words>]
            [--theta <zipf>] [--rounds <k>] [--allocs <k>]
            [--mix churn,ramp,replay,adversary] [--c <c>]
            [--threads <n>] [--json]
            [--chaos <spec>] [--paranoia <k>]
            [--checkpoint <file>] [--checkpoint-every <shards>]
            [--resume] [--stop-after <shards>]
            [--progress[=secs]] [--no-progress]
            [--progress-out <file.jsonl>]
            [--metrics] [--metrics-out <file>]
  pcb bench diff <new.json> --against <baseline.json> [--tolerance <pct>]
  pcb sweep <bound> c <M_words> <log2_n> <c_from> <c_to>
  pcb sweep <bound> n <M_over_n> <c> <logn_from> <logn_to>
  pcb sweep rho <M_words> <log2_n> <c>
  pcb worst-case <M_words> <log2_n> [first-fit|best-fit|next-fit]
                 [--max-states <n>] [--threads <n>]
                 [--checkpoint <file>] [--checkpoint-every <levels>]
                 [--resume] [--stop-after <levels>]
                 [--progress[=secs]] [--progress-out <file.jsonl>]
                 [--metrics] [--metrics-out <file>]
  pcb reproduce
    (--chaos spec: seed=<s>,<site>=<rate_ppm>,... with sites
     alloc-refusal budget-cut mirror-flip trace-io tenant-panic;
     --paranoia k cross-checks manager mirrors every k rounds)
    (--progress: heartbeat to stderr; fleet defaults to on when stderr
     is a terminal, off when piped; --no-progress forces off;
     --progress-out streams one JSON object per pulse)
    (--metrics-out: Prometheus text, or pcb-json when the path
     ends in .json; implies --metrics)
    (bounds: thm1-lower thm2-upper robson-p2 robson-doubled
             bp11-upper bp11-lower)
";

/// Parses one flag of the shared `--progress` family into `opts`.
/// Returns `Ok(true)` when the flag was consumed, `Ok(false)` when it
/// belongs to someone else.
fn parse_progress_flag(
    flag: &str,
    value: &mut dyn FnMut(&str) -> Result<String, String>,
    opts: &mut ProgressOptions,
) -> Result<bool, String> {
    match flag {
        "--progress" => opts.mode = ProgressMode::Every(2.0),
        "--no-progress" => opts.mode = ProgressMode::Off,
        "--progress-out" => opts.stream = Some(value("--progress-out")?.into()),
        f if f.starts_with("--progress=") => {
            let secs: f64 = f["--progress=".len()..]
                .parse()
                .map_err(|e| format!("--progress: {e}"))?;
            opts.mode = ProgressMode::Every(secs);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Writes a metrics snapshot to `path`: pcb-json when the path ends in
/// `.json`, Prometheus text exposition (0.0.4) otherwise. The summary
/// line goes to stderr so stdout stays report-only.
fn write_metrics(path: &str, snap: &metrics::MetricsSnapshot) -> Result<(), String> {
    let out = if path.ends_with(".json") {
        format!("{}\n", pcb_json::ToJson::to_json(snap))
    } else {
        snap.to_prometheus()
    };
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "metrics: {} counters / {} gauges / {} histograms -> {path}",
        snap.counters().count(),
        snap.gauges().count(),
        snap.histograms().count()
    );
    Ok(())
}

fn cmd_bounds(args: &[String]) -> Result<(), String> {
    let [m, log_n, c] = args else {
        return Err("bounds needs <M_words> <log2_n> <c>".into());
    };
    let params = Params::new(
        m.parse().map_err(|e| format!("M: {e}"))?,
        log_n.parse().map_err(|e| format!("log_n: {e}"))?,
        c.parse().map_err(|e| format!("c: {e}"))?,
    )
    .map_err(|e| e.to_string())?;
    println!("{params}");
    match bounds::thm1::optimal(params) {
        Some((rho, h)) => println!("thm1 lower bound    {h:.4} x M  (rho = {rho})"),
        None => println!("thm1 lower bound    infeasible"),
    }
    match bounds::thm2::factor(params) {
        Some(f) => println!("thm2 upper bound    {f:.4} x M"),
        None => println!("thm2 upper bound    n/a (needs c > log2(n)/2)"),
    }
    println!(
        "robson (P2)         {:.4} x M",
        bounds::robson::factor_p2(params)
    );
    println!(
        "robson doubled      {:.4} x M",
        bounds::robson::factor_arbitrary(params)
    );
    println!(
        "bp11 upper          {:.4} x M",
        bounds::bp11::upper_factor(params)
    );
    println!(
        "bp11 lower          {:.4} x M",
        bounds::bp11::lower_factor(params)
    );
    Ok(())
}

fn cmd_figure(args: &[String]) -> Result<(), String> {
    use partial_compaction::sweep::{over_c, over_n, Bound};
    let plot = args.iter().any(|a| a == "--plot");
    if plot {
        let series = match args.first().map(String::as_str) {
            Some("1") => vec![
                over_c(Bound::Thm1Lower, 1 << 28, 20, 10..=100),
                over_c(Bound::Bp11Lower, 1 << 28, 20, 10..=100),
            ],
            Some("2") => vec![over_n(Bound::Thm1Lower, 256, 100, 10..=30)],
            Some("3") => vec![
                over_c(Bound::Thm2Upper, 1 << 28, 20, 10..=100),
                over_c(Bound::Bp11Upper, 1 << 28, 20, 10..=100),
                over_c(Bound::RobsonDoubled, 1 << 28, 20, 10..=100),
            ],
            _ => return Err("figure needs 1, 2, or 3".into()),
        };
        print!("{}", partial_compaction::plot::render(&series, 72, 20));
        return Ok(());
    }
    match args.first().map(String::as_str) {
        Some("1") => print_csv(&figures::figure1()),
        Some("2") => print_csv(&figures::figure2()),
        Some("3") => print_csv(&figures::figure3()),
        _ => return Err("figure needs 1, 2, or 3".into()),
    }
    Ok(())
}

fn print_csv<T: pcb_json::ToJson>(rows: &[T]) {
    let mut header_done = false;
    for row in rows {
        let value = row.to_json();
        let pcb_json::Json::Object(obj) = &value else {
            panic!("rows serialize to objects");
        };
        if !header_done {
            println!(
                "{}",
                obj.keys().map(String::as_str).collect::<Vec<_>>().join(",")
            );
            header_done = true;
        }
        println!(
            "{}",
            obj.values()
                .map(|v| match v {
                    pcb_json::Json::Str(s) => s.clone(),
                    pcb_json::Json::Null => String::new(),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join(",")
        );
    }
}

#[derive(Debug)]
struct SimOpts {
    program: String,
    manager: ManagerKind,
    m: u64,
    log_n: u32,
    c: u64,
    map: bool,
    validate: bool,
    series: Option<String>,
    every: u32,
    stats: bool,
    trace_out: Option<String>,
    profile: bool,
    rounds: Option<u32>,
    allocs: Option<usize>,
    chaos: Option<partial_compaction::FaultPlan>,
    paranoia: u32,
    metrics: bool,
    metrics_out: Option<String>,
    progress: ProgressOptions,
}

fn parse_opts(args: &[String]) -> Result<SimOpts, String> {
    let mut opts = SimOpts {
        program: "pf".into(),
        manager: ManagerKind::FirstFit,
        m: 1 << 16,
        log_n: 10,
        c: 20,
        map: false,
        validate: false,
        series: None,
        every: 1,
        stats: false,
        trace_out: None,
        profile: false,
        rounds: None,
        allocs: None,
        chaos: None,
        paranoia: 0,
        metrics: false,
        metrics_out: None,
        // Off (not Auto) for single runs: a simulate is usually over in
        // well under one heartbeat cadence; `--progress` opts in.
        progress: ProgressOptions {
            mode: ProgressMode::Off,
            stream: None,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--program" => opts.program = value("--program")?,
            "--manager" => {
                opts.manager = value("--manager")?
                    .parse()
                    .map_err(|e: partial_compaction::alloc::ParseManagerKindError| e.to_string())?
            }
            "--m" => opts.m = value("--m")?.parse().map_err(|e| format!("--m: {e}"))?,
            "--log-n" => {
                opts.log_n = value("--log-n")?
                    .parse()
                    .map_err(|e| format!("--log-n: {e}"))?
            }
            "--c" => opts.c = value("--c")?.parse().map_err(|e| format!("--c: {e}"))?,
            "--map" => opts.map = true,
            "--validate" => opts.validate = true,
            "--series" => opts.series = Some(value("--series")?),
            "--every" => {
                opts.every = value("--every")?
                    .parse()
                    .map_err(|e| format!("--every: {e}"))?
            }
            "--stats" => opts.stats = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--profile" => opts.profile = true,
            "--rounds" => {
                opts.rounds = Some(
                    value("--rounds")?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?,
                )
            }
            "--allocs" => {
                opts.allocs = Some(
                    value("--allocs")?
                        .parse()
                        .map_err(|e| format!("--allocs: {e}"))?,
                )
            }
            "--chaos" => {
                opts.chaos =
                    Some(value("--chaos")?.parse().map_err(
                        |e: partial_compaction::chaos::ParseFaultPlanError| e.to_string(),
                    )?)
            }
            "--paranoia" => {
                opts.paranoia = value("--paranoia")?
                    .parse()
                    .map_err(|e| format!("--paranoia: {e}"))?
            }
            "--metrics" => opts.metrics = true,
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            flag if parse_progress_flag(flag, &mut value, &mut opts.progress)? => {}
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

/// Per-round heartbeat adapter: rides the observer bus and ticks the
/// [`Heartbeat`] at round boundaries. Pure side channel — it reads the
/// heap, never touches it.
struct ProgressObserver {
    heartbeat: Heartbeat,
}

impl partial_compaction::heap::Observer for ProgressObserver {
    fn on_event(
        &mut self,
        _tick: partial_compaction::heap::Tick,
        _event: &partial_compaction::heap::Event,
    ) {
    }

    fn on_round_end(&mut self, round: u32, heap: &Heap) {
        self.heartbeat.tick(
            u64::from(round) + 1,
            0,
            &[
                ("heap_size_words", Json::from(heap.heap_size().get())),
                ("peak_live_words", Json::from(heap.peak_live().get())),
            ],
        );
    }
}

fn cmd_simulate(args: &[String], record_to: Option<String>) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let params = Params::new(opts.m, opts.log_n, opts.c).map_err(|e| e.to_string())?;
    // The run configuration is resolved once, here at the boundary: the
    // environment (`PCB_THREADS`) is the fallback, flags override it, and
    // everything downstream receives plain data.
    let mut run = RunConfig::from_env();
    if let Some(chaos) = opts.chaos {
        run = run.with_chaos(chaos);
    }
    run = run.with_paranoia(opts.paranoia);
    if opts.metrics || opts.metrics_out.is_some() {
        run = run.with_metrics(true);
    }
    run.apply();
    if opts.trace_out.is_some() || opts.profile {
        spans::enable();
    }

    let heap = if opts.manager.is_unbounded() {
        Heap::unlimited_compaction()
    } else if opts.manager.is_compacting() || opts.program.starts_with("pf") {
        Heap::new(opts.c)
    } else {
        Heap::non_moving()
    };
    let budget_c = if opts.manager.is_unbounded() {
        0
    } else if opts.manager.is_compacting() || opts.program.starts_with("pf") {
        opts.c
    } else {
        u64::MAX
    };
    // try_build: a parameter combination the manager cannot serve is a
    // clean CLI error, not a panic.
    let manager = opts.manager.try_build(&params).map_err(|e| e.to_string())?;

    let program: Box<dyn Program> = match opts.program.as_str() {
        "pf" | "pf-baseline" => {
            let mut cfg = PfConfig::new(opts.m, opts.log_n, opts.c).map_err(|e| e.to_string())?;
            if opts.program == "pf-baseline" {
                cfg = cfg.with_variant(PfVariant::BASELINE);
            }
            if opts.validate {
                cfg = cfg.with_validation();
            }
            Box::new(PfProgram::new(cfg))
        }
        "robson" => Box::new(RobsonProgram::new(opts.m, opts.log_n)),
        // The workload families share the fleet's dispatch path: one
        // object-safe factory per family, instantiated for this shape.
        name @ ("churn" | "ramp" | "replay") => {
            let family = tenant_by_kind(name).expect("built-in family");
            // Family defaults match the historical single-heap profiles
            // (churn's `typical` 200x64; ramp's 12 benign phases).
            let (rounds, allocs) = match name {
                "churn" => (200, 64),
                "ramp" => (12, 64),
                _ => (24, 32),
            };
            family.instantiate(&TenantShape {
                m: opts.m,
                log_n: opts.log_n,
                c: opts.c,
                seed: 0x5EED,
                rounds: opts.rounds.unwrap_or(rounds),
                allocs_per_round: opts.allocs.unwrap_or(allocs),
            })
        }
        other => return Err(format!("unknown program {other}")),
    };

    let mut exec = Execution::new(heap, program, manager)
        .with_chaos(run.chaos)
        .with_paranoia(run.paranoia);
    if opts.stats {
        exec = exec.with_stats();
    }

    let mut series = opts
        .series
        .as_ref()
        .map(|_| TimeSeries::new().every(opts.every));
    let mut recorder = None;
    let mut writer = None;
    if let Some(path) = &record_to {
        if path.ends_with(".jsonl") {
            // Streaming mode: events go straight to disk, one JSON object
            // per line, so arbitrarily long runs record in constant memory.
            let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            writer = Some(
                TraceWriter::new(std::io::BufWriter::new(file))
                    .chaos(run.chaos)
                    .begin(budget_c),
            );
        } else {
            recorder = Some(TraceRecorder::new(budget_c));
        }
    }

    let mut progress_observer = match opts.progress.cadence() {
        Some(_) => Some(ProgressObserver {
            heartbeat: Heartbeat::new("simulate", &opts.progress)
                .map_err(|e| format!("progress stream: {e}"))?,
        }),
        None => None,
    };

    let report = if series.is_some()
        || recorder.is_some()
        || writer.is_some()
        || progress_observer.is_some()
    {
        let mut bus = Observers::new();
        if let Some(s) = series.as_mut() {
            bus.attach(s);
        }
        if let Some(r) = recorder.as_mut() {
            bus.attach(r);
        }
        if let Some(w) = writer.as_mut() {
            bus.attach(w);
        }
        if let Some(p) = progress_observer.as_mut() {
            bus.attach(p);
        }
        exec.run_observed(&mut bus).map_err(|e| e.to_string())?
    } else {
        exec.run().map_err(|e| e.to_string())?
    };
    if let Some(observer) = progress_observer {
        observer
            .heartbeat
            .finish()
            .map_err(|e| format!("progress stream: {e}"))?;
    }

    if let (Some(recorder), Some(path)) = (recorder, &record_to) {
        let trace = recorder.into_trace();
        std::fs::write(path, trace.to_json()).map_err(|e| e.to_string())?;
        println!("trace: {} events -> {path}", trace.len());
    }
    if let (Some(writer), Some(path)) = (writer, &record_to) {
        let events = writer.events_seen();
        writer.finish().map_err(|e| e.to_string())?;
        println!("trace: {events} events streamed -> {path}");
    }
    if let (Some(path), Some(series)) = (&opts.series, series) {
        let out = if path.ends_with(".json") {
            pcb_json::ToJson::to_json(&series).to_string()
        } else {
            series.to_csv()
        };
        std::fs::write(path, out).map_err(|e| e.to_string())?;
        println!("series: {} samples -> {path}", series.len());
    }

    println!(
        "{} vs {}: HS = {} words, HS/M = {:.3}, moved = {:.4}",
        report.program,
        report.manager,
        report.heap_size,
        report.waste_factor,
        report.moved_fraction
    );
    if opts.program == "pf" {
        let h = bounds::thm1::factor(params);
        println!(
            "theorem 1 bound h = {h:.3}; measured/bound = {:.3}",
            report.waste_factor / h
        );
    }
    if let Some(stats) = exec.take_stats() {
        println!("stats: {}", pcb_json::ToJson::to_json(&stats));
    }
    if let Some(path) = &opts.metrics_out {
        write_metrics(path, &metrics::snapshot())?;
    }
    if opts.map {
        println!("{}", heat_map_rows(exec.heap(), 72, 4));
    }
    if opts.trace_out.is_some() || opts.profile {
        spans::disable();
        let trace = spans::take_trace();
        if let Some(path) = &opts.trace_out {
            let doc = trace.to_chrome_trace();
            std::fs::write(path, format!("{doc}\n")).map_err(|e| e.to_string())?;
            println!(
                "trace: {} spans on {} tracks -> {path} (load it at https://ui.perfetto.dev)",
                trace.len(),
                trace.tracks.len()
            );
        }
        if opts.profile {
            print!("{}", spans::Profile::from_trace(&trace).render_table());
        }
    }
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    let mut cfg = fleet::FleetConfig::default();
    let mut run = RunConfig::from_env();
    let mut json = false;
    let mut checkpoint: Option<String> = None;
    let mut checkpoint_every = 16usize;
    let mut resume = false;
    let mut stop_after: Option<usize> = None;
    // Default `Auto`: heartbeat on when stderr is a terminal (a human is
    // watching the run), off when piped — either way the report bytes
    // are identical.
    let mut progress = ProgressOptions::default();
    let mut metrics_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--tenants" => {
                cfg.tenants = value("--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?
            }
            "--shards" => {
                cfg.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--manager" => {
                cfg.manager = value("--manager")?
                    .parse()
                    .map_err(|e: partial_compaction::alloc::ParseManagerKindError| e.to_string())?
            }
            "--seed" => {
                cfg.mixer.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--m-min" => {
                cfg.mixer.m_min = value("--m-min")?
                    .parse()
                    .map_err(|e| format!("--m-min: {e}"))?
            }
            "--m-max" => {
                cfg.mixer.m_max = value("--m-max")?
                    .parse()
                    .map_err(|e| format!("--m-max: {e}"))?
            }
            "--theta" => {
                cfg.mixer.zipf_theta = value("--theta")?
                    .parse()
                    .map_err(|e| format!("--theta: {e}"))?
            }
            "--rounds" => {
                cfg.mixer.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?
            }
            "--allocs" => {
                cfg.mixer.allocs_per_round = value("--allocs")?
                    .parse()
                    .map_err(|e| format!("--allocs: {e}"))?
            }
            "--c" => cfg.mixer.c = value("--c")?.parse().map_err(|e| format!("--c: {e}"))?,
            "--mix" => {
                let raw = value("--mix")?;
                let parts: Vec<u32> = raw
                    .split(',')
                    .map(|p| p.trim().parse().map_err(|e| format!("--mix: {e}")))
                    .collect::<Result<_, _>>()?;
                let [churn, ramp, replay, adversary] = parts[..] else {
                    return Err("--mix needs four weights: churn,ramp,replay,adversary".into());
                };
                cfg.mixer.weights = MixWeights {
                    churn,
                    ramp,
                    replay,
                    adversary,
                };
            }
            "--threads" => {
                run = run.with_threads(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--chaos" => {
                run =
                    run.with_chaos(value("--chaos")?.parse().map_err(
                        |e: partial_compaction::chaos::ParseFaultPlanError| e.to_string(),
                    )?)
            }
            "--paranoia" => {
                run = run.with_paranoia(
                    value("--paranoia")?
                        .parse()
                        .map_err(|e| format!("--paranoia: {e}"))?,
                )
            }
            "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
            "--checkpoint-every" => {
                checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--resume" => resume = true,
            "--stop-after" => {
                stop_after = Some(
                    value("--stop-after")?
                        .parse()
                        .map_err(|e| format!("--stop-after: {e}"))?,
                )
            }
            "--json" => json = true,
            "--metrics" => run = run.with_metrics(true),
            "--metrics-out" => {
                metrics_out = Some(value("--metrics-out")?);
                // Asking for the artifact implies collecting it.
                run = run.with_metrics(true);
            }
            flag if parse_progress_flag(flag, &mut value, &mut progress)? => {}
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if resume && checkpoint.is_none() {
        return Err("--resume needs --checkpoint <file>".into());
    }
    run.apply();
    let start = std::time::Instant::now();
    let report = match &checkpoint {
        Some(path) => {
            let mut opts = fleet::CheckpointOptions::new(path)
                .every(checkpoint_every)
                .resume(resume);
            opts.stop_after = stop_after;
            match fleet::run_checkpointed_with_progress(&cfg, &run, &opts, &progress)
                .map_err(|e| e.to_string())?
            {
                fleet::FleetOutcome::Complete(report) => report,
                fleet::FleetOutcome::Paused {
                    shards_done,
                    shards_total,
                } => {
                    eprintln!(
                        "paused after {shards_done}/{shards_total} shards; \
                         checkpoint -> {path} (continue with --resume)"
                    );
                    return Ok(());
                }
            }
        }
        None => fleet::run_with_progress(&cfg, &run, &progress).map_err(|e| e.to_string())?,
    };
    let elapsed = start.elapsed().as_secs_f64();
    if json {
        println!("{}", pcb_json::ToJson::to_json(&report));
    } else {
        print!("{report}");
    }
    if let Some(path) = &metrics_out {
        write_metrics(path, &report.accumulator.metrics)?;
    }
    // Wall-clock goes to stderr only: the report itself (stdout and JSON)
    // is byte-deterministic across thread counts and machines.
    eprintln!(
        "ran {} tenants in {elapsed:.2}s ({:.0} tenants/sec, {run})",
        report.tenants,
        report.tenants as f64 / elapsed.max(1e-9)
    );
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("diff") => cmd_bench_diff(&args[1..]),
        _ => Err(
            "bench supports: diff <new.json> --against <baseline.json> [--tolerance <pct>]".into(),
        ),
    }
}

fn cmd_bench_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut new_path = None;
    let mut baseline = None;
    let mut tolerance = 10.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--against" => {
                baseline = Some(
                    it.next()
                        .ok_or_else(|| "--against needs a path".to_string())?
                        .clone(),
                )
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or_else(|| "--tolerance needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path if new_path.is_none() => new_path = Some(path.to_owned()),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    let new_path = new_path.ok_or("bench diff needs the new artifact path")?;
    let baseline = baseline.ok_or("bench diff needs --against <baseline.json>")?;
    let report = benchdiff::compare_files(&new_path, &baseline, tolerance)?;
    println!("comparing {new_path} against {baseline} (tolerance {tolerance}%)");
    print!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    use partial_compaction::sweep::{self, Bound};
    let parse_bound = |s: &str| {
        Bound::ALL
            .into_iter()
            .find(|b| b.label() == s)
            .ok_or_else(|| format!("unknown bound {s}"))
    };
    let series = match args {
        [b, axis, m, log_n, from, to] if axis == "c" => {
            let bound = parse_bound(b)?;
            sweep::over_c(
                bound,
                m.parse().map_err(|e| format!("M: {e}"))?,
                log_n.parse().map_err(|e| format!("log_n: {e}"))?,
                from.parse::<u64>().map_err(|e| format!("from: {e}"))?
                    ..=to.parse::<u64>().map_err(|e| format!("to: {e}"))?,
            )
        }
        [b, axis, ratio, c, from, to] if axis == "n" => {
            let bound = parse_bound(b)?;
            sweep::over_n(
                bound,
                ratio.parse().map_err(|e| format!("M/n: {e}"))?,
                c.parse().map_err(|e| format!("c: {e}"))?,
                from.parse::<u32>().map_err(|e| format!("from: {e}"))?
                    ..=to.parse::<u32>().map_err(|e| format!("to: {e}"))?,
            )
        }
        [rho, m, log_n, c] if rho == "rho" => {
            let params = Params::new(
                m.parse().map_err(|e| format!("M: {e}"))?,
                log_n.parse().map_err(|e| format!("log_n: {e}"))?,
                c.parse().map_err(|e| format!("c: {e}"))?,
            )
            .map_err(|e| e.to_string())?;
            sweep::over_rho(params, 1..=16)
        }
        _ => return Err("see usage for sweep forms".into()),
    };
    println!("# {}", series.label);
    println!("x,factor");
    for (x, y) in &series.points {
        println!("{x},{y}");
    }
    Ok(())
}

fn cmd_worst_case(args: &[String]) -> Result<(), String> {
    use partial_compaction::exhaustive::{
        try_worst_case_observed, try_worst_case_resumable, SearchOutcome, SearchPolicy,
    };
    let mut positional: Vec<&String> = Vec::new();
    let mut max_states = 50_000_000usize;
    let mut run = RunConfig::from_env();
    let mut checkpoint: Option<String> = None;
    let mut checkpoint_every = 1usize;
    let mut resume = false;
    let mut stop_after: Option<usize> = None;
    let mut progress = ProgressOptions::default();
    let mut metrics_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--max-states" => {
                max_states = value("--max-states")?
                    .parse()
                    .map_err(|e| format!("--max-states: {e}"))?
            }
            "--threads" => {
                run = run.with_threads(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
            "--checkpoint-every" => {
                checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--resume" => resume = true,
            "--stop-after" => {
                stop_after = Some(
                    value("--stop-after")?
                        .parse()
                        .map_err(|e| format!("--stop-after: {e}"))?,
                )
            }
            "--metrics" => run = run.with_metrics(true),
            "--metrics-out" => {
                metrics_out = Some(value("--metrics-out")?);
                run = run.with_metrics(true);
            }
            flag if parse_progress_flag(flag, &mut value, &mut progress)? => {}
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(arg),
        }
    }
    if resume && checkpoint.is_none() {
        return Err("--resume needs --checkpoint <file>".into());
    }
    let (m, log_n, policy) = match positional.as_slice() {
        [m, log_n] => (m, log_n, SearchPolicy::FirstFit),
        [m, log_n, p] => {
            let policy = SearchPolicy::ALL
                .into_iter()
                .find(|policy| policy.name() == p.as_str())
                .ok_or_else(|| format!("unknown policy {p} (first-fit|best-fit|next-fit)"))?;
            (m, log_n, policy)
        }
        _ => {
            return Err(
                "worst-case needs <M_words> <log2_n> [first-fit|best-fit|next-fit] \
                 [--max-states <n>]"
                    .into(),
            )
        }
    };
    let params = Params::new(
        m.parse().map_err(|e| format!("M: {e}"))?,
        log_n.parse().map_err(|e| format!("log_n: {e}"))?,
        10,
    )
    .map_err(|e| e.to_string())?;
    if params.m() > 16 || params.log_n() > 3 {
        return Err(format!(
            "exhaustive search is toy-scale only (M <= 16, log n <= 3); got {params}"
        ));
    }
    run.apply();
    let report = match &checkpoint {
        Some(path) => {
            let mut opts = fleet::CheckpointOptions::new(path)
                .every(checkpoint_every)
                .resume(resume);
            opts.stop_after = stop_after;
            match try_worst_case_resumable(params, policy, max_states, &run, &opts)
                .map_err(|e| e.to_string())?
            {
                SearchOutcome::Complete(report) => report,
                SearchOutcome::Paused { levels_done } => {
                    eprintln!(
                        "paused after {levels_done} BFS levels; \
                         checkpoint -> {path} (continue with --resume)"
                    );
                    return Ok(());
                }
            }
        }
        None => {
            let mut heartbeat = Heartbeat::new("worst-case", &progress)
                .map_err(|e| format!("progress stream: {e}"))?;
            // Total is unknown ahead of time (that is what the search
            // computes), so `done` counts interned states with no ETA.
            let report = try_worst_case_observed(params, policy, max_states, &run, |pulse| {
                heartbeat.tick(
                    pulse.seen_states as u64,
                    0,
                    &[
                        ("levels", Json::from(pulse.levels as u64)),
                        ("frontier_states", Json::from(pulse.frontier_states as u64)),
                        ("resident_bytes", Json::from(pulse.resident_bytes)),
                    ],
                );
            })
            .map_err(|e| format!("parameters not toy enough: {e}"))?;
            heartbeat
                .finish()
                .map_err(|e| format!("progress stream: {e}"))?;
            report
        }
    };
    if let Some(path) = &metrics_out {
        write_metrics(path, &metrics::snapshot())?;
    }
    println!(
        "true worst case for {} at M={}, n={}: HS = {} words ({} reachable states)",
        policy.name(),
        params.m(),
        params.n(),
        report.worst.heap_size,
        report.worst.states
    );
    println!(
        "search: {} levels, peak frontier {} states, seen-set {} KiB resident",
        report.stats.levels,
        report.stats.peak_frontier,
        report.stats.resident_bytes / 1024
    );
    println!(
        "Robson's formula (optimal allocator): {:.0} words",
        bounds::robson::bound_p2(params)
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("replay needs a trace file".into());
    };
    let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let trace = if path.ends_with(".jsonl") {
        partial_compaction::heap::Trace::from_jsonl(&json)?
    } else {
        partial_compaction::heap::Trace::from_json(&json)?
    };
    match trace.replay() {
        Ok(heap) => {
            println!(
                "trace valid: {} events, final HS = {} words, {} live objects",
                trace.len(),
                heap.heap_size().get(),
                heap.live_count()
            );
            Ok(())
        }
        Err((idx, e)) => Err(format!("trace invalid at event {idx}: {e}")),
    }
}
