//! `pcb` — the command-line front end to the partial-compaction
//! reproduction.
//!
//! ```text
//! pcb bounds <M_words> <log2_n> <c>         evaluate every bound
//! pcb figure <1|2|3|5|6|7|9>                print a figure's or experiment's CSV
//! pcb simulate [options]                    run an adversary or workload
//! pcb record <file.jsonl> [options]         record a run as a trace
//! pcb replay <file.jsonl>                   re-validate a recorded trace
//! pcb fleet [options]                       simulate a fleet of tenant heaps
//! ```
//!
//! `pcb` with no arguments prints every option ([`USAGE`]).
//!
//! A `simulate`/`record` run is one [`Sim`] (`--program` picks `P_F`,
//! `P_R` or a workload family): this file only attaches the trace
//! recorder, heartbeat and heat map as observers and prints the report.
//! The flags `simulate`, `fleet` and `worst-case` share are parsed once,
//! from the [`SHARED`] table.
//!
//! A trace is JSONL: a `{"c": N}` header, then one event per line.
//! `record` streams it to the file as the run goes and `replay` streams
//! it back through the heap, so neither holds the run in memory.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use partial_compaction::heap::{heat_map_rows, Event, Heap, Observer, Tick, TraceReader};
use partial_compaction::metrics::spans;
use partial_compaction::progress::{Heartbeat, ProgressMode, ProgressOptions};
use partial_compaction::sim::{Adversary, Sim, SimError};
use partial_compaction::workload::{Family, MixWeights};
use partial_compaction::{bounds, figures, fleet, metrics, ManagerKind, Params};
use partial_compaction::{Observers, PfVariant, RunConfig, TraceWriter};
use pcb_json::{Json, ToJson};

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
        None => {
            eprint!("{}", USAGE);
            return ExitCode::from(2);
        }
        Some(other) => {
            eprint!("{}", USAGE);
            Err(format!("unknown command `{other}`"))
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
  pcb figure <1|2|3|5|6|7|9> [--plot]
  pcb simulate [--program pf|pf-baseline|robson|churn|ramp|replay]
               [--manager <name>] [--m <words>] [--log-n <k>] [--c <c>]
               [--rounds <k>] [--allocs <k>] [--map] [--validate]
               [--series <file>] [--every <k>]
               [--chaos <spec>] [--paranoia <k>]
               [--progress[=secs]] [--progress-out <file.jsonl>]
               [--metrics-out <file>] [--profile]
  pcb record <file.jsonl> [simulate options]
  pcb replay <file.jsonl>
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
            [--metrics-out <file>]
  pcb sweep <bound> c <M_words> <log2_n> <c_from> <c_to>
  pcb sweep <bound> n <M_over_n> <c> <logn_from> <logn_to>
  pcb sweep rho <M_words> <log2_n> <c>
  pcb worst-case <M_words> <log2_n> [first-fit|best-fit|next-fit]
                 [--max-states <n>] [--threads <n>]
                 [--checkpoint <file>] [--checkpoint-every <levels>]
                 [--resume] [--stop-after <levels>]
                 [--progress[=secs]] [--progress-out <file.jsonl>]
                 [--metrics-out <file>]
  pcb reproduce
    (--chaos spec: seed=<s>,<site>=<rate_ppm>,... with sites
     alloc-refusal budget-cut mirror-flip trace-io tenant-panic;
     --paranoia k cross-checks manager mirrors every k rounds)
    (--progress: heartbeat to stderr; fleet defaults to on when stderr
     is a terminal, off when piped; --no-progress forces off;
     --progress-out streams one JSON object per pulse)
    (--metrics-out: the run's metrics as pcb-json, whatever the
     file is called; with --profile it also holds the span. family)
    (bounds: thm1-lower thm2-upper robson-p2 robson-doubled
             bp11-upper bp11-lower)
";

/// Parses `s`, naming `what` in the error.
fn num<T: FromStr>(s: &str, what: &str) -> Result<T, String>
where
    T::Err: Display,
{
    s.parse().map_err(|e| format!("{what}: {e}"))
}

/// The argument cursor a subcommand's flags read their values from.
struct Args<'a>(std::slice::Iter<'a, String>);

impl Args<'_> {
    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed.
    fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        num(&self.value(flag)?, flag)
    }
}

/// The subcommands that read the [`SHARED`] flags (`record` is
/// `simulate`).
#[derive(Clone, Copy, PartialEq)]
enum Cmd {
    Simulate,
    Fleet,
    WorstCase,
}

/// The flag table: every flag more than one subcommand reads, and the
/// subcommands that take it. Any other flag goes to the subcommand's own
/// parser, which rejects what it does not know.
const SHARED: &[(&str, &[Cmd])] = {
    use Cmd::{Fleet as F, Simulate as S, WorstCase as W};
    &[
        ("--manager", &[S, F]),
        ("--c", &[S, F]),
        ("--rounds", &[S, F]),
        ("--allocs", &[S, F]),
        ("--chaos", &[S, F]),
        ("--paranoia", &[S, F]),
        ("--threads", &[F, W]),
        ("--checkpoint", &[F, W]),
        ("--checkpoint-every", &[F, W]),
        ("--resume", &[F, W]),
        ("--stop-after", &[F, W]),
        ("--metrics-out", &[S, F, W]),
        ("--progress", &[S, F, W]),
        ("--no-progress", &[S, F, W]),
        ("--progress-out", &[S, F, W]),
    ]
};

/// The [`SHARED`] flags, resolved once at the boundary: the environment
/// (`PCB_THREADS`) is the fallback, flags override it, and everything
/// downstream receives plain data. `None` keeps the subcommand's default.
struct Flags {
    run: RunConfig,
    progress: ProgressOptions,
    metrics_out: Option<String>,
    checkpoint: Option<fleet::CheckpointOptions>,
    manager: Option<ManagerKind>,
    c: Option<u64>,
    rounds: Option<u32>,
    allocs: Option<usize>,
}

impl Flags {
    /// Walks `args` once: [`SHARED`] flags that `cmd` takes land in the
    /// result, and every other argument goes to `local`, which returns
    /// `Ok(false)` for one it does not know.
    fn parse(
        cmd: Cmd,
        args: &[String],
        mut local: impl FnMut(&str, &mut Args) -> Result<bool, String>,
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            run: RunConfig::from_env(),
            // A single run is usually over within one heartbeat cadence,
            // so `simulate` is silent unless `--progress` opts in. Auto
            // elsewhere: on when stderr is a terminal, off when piped;
            // the report bytes are identical either way.
            progress: ProgressOptions {
                mode: if cmd == Cmd::Simulate {
                    ProgressMode::Off
                } else {
                    ProgressMode::Auto
                },
                stream: None,
            },
            metrics_out: None,
            checkpoint: None,
            manager: None,
            c: None,
            rounds: None,
            allocs: None,
        };
        // Fleet checkpoints every 16 shards, worst-case every BFS level.
        let mut every = if cmd == Cmd::Fleet { 16 } else { 1 };
        let (mut path, mut resume, mut stop_after) = (None::<String>, false, None);
        let mut args = Args(args.iter());
        while let Some(flag) = args.0.next() {
            let name = match flag.strip_prefix("--progress=") {
                Some(_) => "--progress",
                None => flag.as_str(),
            };
            if !SHARED
                .iter()
                .any(|(n, cmds)| *n == name && cmds.contains(&cmd))
            {
                if local(flag, &mut args)? {
                    continue;
                }
                return Err(format!("unknown flag {flag}"));
            }
            let run = &mut flags.run;
            match name {
                "--manager" => flags.manager = Some(args.parse(name)?),
                "--c" => flags.c = Some(args.parse(name)?),
                "--rounds" => flags.rounds = Some(args.parse(name)?),
                "--allocs" => flags.allocs = Some(args.parse(name)?),
                "--chaos" => *run = run.with_chaos(args.parse(name)?),
                "--paranoia" => *run = run.with_paranoia(args.parse(name)?),
                "--threads" => *run = run.with_threads(args.parse(name)?),
                "--checkpoint" => path = Some(args.value(name)?),
                "--checkpoint-every" => every = args.parse(name)?,
                "--resume" => resume = true,
                "--stop-after" => stop_after = Some(args.parse(name)?),
                "--metrics-out" => flags.metrics_out = Some(args.value(name)?),
                "--progress" => {
                    let secs = match flag.strip_prefix("--progress=") {
                        Some(secs) => cadence(secs)?,
                        None => 2.0,
                    };
                    flags.progress.mode = ProgressMode::Every(secs);
                }
                "--no-progress" => flags.progress.mode = ProgressMode::Off,
                "--progress-out" => flags.progress.stream = Some(args.value(name)?.into()),
                _ => unreachable!("{name} has a row in SHARED but no arm here"),
            }
        }
        if resume && path.is_none() {
            return Err("--resume needs --checkpoint <file>".into());
        }
        flags.checkpoint = path.map(|path| {
            let mut opts = fleet::CheckpointOptions::new(path)
                .every(every)
                .resume(resume);
            opts.stop_after = stop_after;
            opts
        });
        Ok(flags)
    }
}

/// A `--progress=<secs>` cadence. Negative values mean "every tick";
/// infinite, NaN and out-of-range ones have no `Duration` and are refused.
fn cadence(secs: &str) -> Result<f64, String> {
    let secs: f64 = num(secs, "--progress")?;
    match Duration::try_from_secs_f64(secs.max(0.0)) {
        Ok(_) if secs.is_finite() => Ok(secs),
        _ => Err(format!("--progress: {secs} is not a cadence in seconds")),
    }
}

/// Writes a metrics snapshot to `path` as pcb-json, whatever the file is
/// called. The summary line goes to stderr so stdout stays report-only.
fn write_metrics(path: &str, snap: &metrics::MetricsSnapshot) -> Result<(), String> {
    std::fs::write(path, format!("{}\n", snap.to_json()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "metrics: {} counters / {} gauges / {} histograms -> {path}",
        snap.counters().count(),
        snap.gauges().count(),
        snap.histograms().count()
    );
    Ok(())
}

/// `(M, log n, c)` from positional arguments.
fn params(m: &str, log_n: &str, c: &str) -> Result<Params, String> {
    Params::new(num(m, "M")?, num(log_n, "log_n")?, num(c, "c")?).map_err(|e| e.to_string())
}

fn cmd_bounds(args: &[String]) -> Result<(), String> {
    let [m, log_n, c] = args else {
        return Err("bounds needs <M_words> <log2_n> <c>".into());
    };
    let params = params(m, log_n, c)?;
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
    let (id, plot) = match args {
        [id] => (id.as_str(), false),
        [id, flag] if flag == "--plot" => (id.as_str(), true),
        _ => return Err("figure needs one id: 1, 2, 3, 5, 6, 7 or 9 (--plot: 1-3)".into()),
    };
    if plot {
        let series = match id {
            "1" => vec![
                over_c(Bound::Thm1Lower, 1 << 28, 20, 10..=100),
                over_c(Bound::Bp11Lower, 1 << 28, 20, 10..=100),
            ],
            "2" => vec![over_n(Bound::Thm1Lower, 256, 100, 10..=30)],
            "3" => vec![
                over_c(Bound::Thm2Upper, 1 << 28, 20, 10..=100),
                over_c(Bound::Bp11Upper, 1 << 28, 20, 10..=100),
                over_c(Bound::RobsonDoubled, 1 << 28, 20, 10..=100),
            ],
            _ => return Err("--plot draws figures 1, 2 and 3 only".into()),
        };
        print!("{}", partial_compaction::plot::render(&series, 72, 20));
        return Ok(());
    }
    print!("{}", figures::render(id).map_err(|e| e.to_string())?);
    Ok(())
}

/// `--program`'s names for the programs a [`Sim`] runs; `rounds` and
/// `allocs` shape the workload families.
fn program(name: &str, rounds: Option<u32>, allocs: Option<usize>) -> Result<Adversary, String> {
    let family = match name {
        "pf" => return Ok(Adversary::PF),
        "pf-baseline" => return Ok(Adversary::Pf(PfVariant::BASELINE)),
        "robson" => return Ok(Adversary::Robson),
        "churn" => Family::Churn,
        "ramp" => Family::Ramp,
        "replay" => Family::Replay,
        other => return Err(format!("--program: unknown program {other}")),
    };
    Ok(Adversary::Workload {
        family,
        rounds,
        allocs,
    })
}

/// A failed run's message: the underlying error, without [`SimError`]'s
/// context prefix.
fn sim_error(e: SimError) -> String {
    match e {
        SimError::Manager(e) => e.to_string(),
        SimError::Infeasible(msg) => msg,
        SimError::Execution(e) => e.to_string(),
    }
}

/// Per-round heartbeat adapter: rides the observer bus and ticks the
/// [`Heartbeat`] at round boundaries. Pure side channel — it reads the
/// heap, never touches it.
struct ProgressObserver(Heartbeat);

impl Observer for ProgressObserver {
    fn on_event(&mut self, _tick: Tick, _event: &Event) {}

    fn on_round_end(&mut self, round: u32, heap: &Heap) {
        self.0.tick(
            u64::from(round) + 1,
            0,
            &[
                ("heap_size_words", Json::from(heap.heap_size().get())),
                ("peak_live_words", Json::from(heap.peak_live().get())),
            ],
        );
    }
}

/// `--map`: the heat map of the heap as of the latest round end, which
/// after the run is the final heap.
#[derive(Default)]
struct HeatMap(String);

impl Observer for HeatMap {
    fn on_event(&mut self, _tick: Tick, _event: &Event) {}

    fn on_round_end(&mut self, _round: u32, heap: &Heap) {
        self.0 = heat_map_rows(heap, 72, 4);
    }
}

fn cmd_simulate(args: &[String], record_to: Option<String>) -> Result<(), String> {
    let (mut name, mut m, mut log_n) = ("pf".to_string(), 1u64 << 16, 10u32);
    let (mut map, mut validate, mut profile) = (false, false, false);
    let (mut series_to, mut every) = (None, None);
    let flags = Flags::parse(Cmd::Simulate, args, |flag, args| {
        match flag {
            "--program" => name = args.value(flag)?,
            "--m" => m = args.parse(flag)?,
            "--log-n" => log_n = args.parse(flag)?,
            "--map" => map = true,
            "--validate" => validate = true,
            "--series" => series_to = Some(args.value(flag)?),
            "--every" => every = Some(args.parse(flag)?),
            "--profile" => profile = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if every.is_some() && series_to.is_none() {
        return Err("--every needs --series <file>".into());
    }
    let params = Params::new(m, log_n, flags.c.unwrap_or(20)).map_err(|e| e.to_string())?;
    let adversary = program(&name, flags.rounds, flags.allocs)?;
    let run = &flags.run;
    // Asking for the artifact implies collecting it.
    if flags.metrics_out.is_some() {
        metrics::enable();
    }
    if profile {
        spans::enable();
    }
    let mut sim = Sim::new(params)
        .adversary(adversary)
        .manager(flags.manager.unwrap_or(ManagerKind::FirstFit))
        .validate(validate)
        .config(run);
    if series_to.is_some() {
        sim = sim.series(every.unwrap_or(1));
    }

    let mut writer = match &record_to {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            let out = std::io::BufWriter::new(file);
            Some(TraceWriter::new(out, sim.heap_c(), run.chaos))
        }
        None => None,
    };
    let mut progress = match flags.progress.cadence() {
        Some(_) => Some(ProgressObserver(
            Heartbeat::new("simulate", &flags.progress)
                .map_err(|e| format!("progress stream: {e}"))?,
        )),
        None => None,
    };
    let mut heat_map = map.then(HeatMap::default);
    let mut bus = Observers::new();
    if let Some(w) = writer.as_mut() {
        bus.attach(w);
    }
    if let Some(p) = progress.as_mut() {
        bus.attach(p);
    }
    if let Some(h) = heat_map.as_mut() {
        bus.attach(h);
    }
    // With nothing attached the run takes the engine's unobserved path.
    let report = if bus.is_empty() {
        sim
    } else {
        sim.observe(&mut bus)
    }
    .run()
    .map_err(sim_error)?;
    drop(bus);
    if let Some(ProgressObserver(heartbeat)) = progress {
        heartbeat
            .finish()
            .map_err(|e| format!("progress stream: {e}"))?;
    }

    if let (Some(writer), Some(path)) = (writer, &record_to) {
        let events = writer.events_seen();
        writer.finish().map_err(|e| e.to_string())?;
        println!("trace: {events} events streamed -> {path}");
    }
    if let (Some(path), Some(series)) = (&series_to, &report.series) {
        let out = if path.ends_with(".json") {
            series.to_json().to_string()
        } else {
            series.to_csv()
        };
        std::fs::write(path, out).map_err(|e| e.to_string())?;
        println!("series: {} samples -> {path}", series.len());
    }

    let exec = &report.execution;
    println!(
        "{} vs {}: HS = {} words, HS/M = {:.3}, moved = {:.4}",
        report.program, report.manager, exec.heap_size, exec.waste_factor, exec.moved_fraction
    );
    if adversary == Adversary::PF {
        let h = bounds::thm1::factor(params);
        println!(
            "theorem 1 bound h = {h:.3}; measured/bound = {:.3}",
            exec.waste_factor / h
        );
    }
    if profile {
        // Before the export, so this thread's spans reach the file too.
        spans::disable();
        spans::flush();
    }
    if let Some(path) = &flags.metrics_out {
        write_metrics(path, &metrics::snapshot())?;
    }
    if let Some(HeatMap(rows)) = heat_map {
        println!("{rows}");
    }
    if profile {
        print!("{}", spans::render_table(&metrics::snapshot()));
    }
    Ok(())
}

/// `--mix churn,ramp,replay,adversary`.
fn mix(raw: &str) -> Result<MixWeights, String> {
    let parts: Vec<u32> = raw
        .split(',')
        .map(|p| num(p.trim(), "--mix"))
        .collect::<Result<_, _>>()?;
    let [churn, ramp, replay, adversary] = parts[..] else {
        return Err("--mix needs four weights: churn,ramp,replay,adversary".into());
    };
    Ok(MixWeights {
        churn,
        ramp,
        replay,
        adversary,
    })
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    let mut cfg = fleet::FleetConfig::default();
    let mut json = false;
    let flags = Flags::parse(Cmd::Fleet, args, |flag, args| {
        let mixer = &mut cfg.mixer;
        match flag {
            "--tenants" => cfg.tenants = args.parse(flag)?,
            "--shards" => cfg.shards = args.parse(flag)?,
            "--seed" => mixer.seed = args.parse(flag)?,
            "--m-min" => mixer.m_min = args.parse(flag)?,
            "--m-max" => mixer.m_max = args.parse(flag)?,
            "--theta" => mixer.zipf_theta = args.parse(flag)?,
            "--mix" => mixer.weights = mix(&args.value(flag)?)?,
            "--json" => json = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    cfg.manager = flags.manager.unwrap_or(cfg.manager);
    cfg.mixer.c = flags.c.unwrap_or(cfg.mixer.c);
    cfg.mixer.rounds = flags.rounds.unwrap_or(cfg.mixer.rounds);
    cfg.mixer.allocs_per_round = flags.allocs.unwrap_or(cfg.mixer.allocs_per_round);
    let run = &flags.run;
    let start = std::time::Instant::now();
    let checkpoint = flags.checkpoint.as_ref();
    let report = match fleet::run_with(&cfg, run, checkpoint, Some(&flags.progress))
        .map_err(|e| e.to_string())?
    {
        fleet::FleetOutcome::Complete(report) => report,
        fleet::FleetOutcome::Paused {
            shards_done,
            shards_total,
        } => {
            // Only a checkpointed run pauses.
            if let Some(opts) = checkpoint {
                eprintln!(
                    "paused after {shards_done}/{shards_total} shards; \
                     checkpoint -> {} (continue with --resume)",
                    opts.path.display()
                );
            }
            return Ok(());
        }
    };
    let elapsed = start.elapsed().as_secs_f64();
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    if let Some(path) = &flags.metrics_out {
        write_metrics(path, &report.metrics())?;
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
            let (m, log_n) = (num(m, "M")?, num(log_n, "log_n")?);
            let cs = sweep_range(num(from, "from")?..=num(to, "to")?, |c| {
                Params::new(m, log_n, c)
            })?;
            sweep::over_c(bound, m, log_n, cs)
        }
        [b, axis, ratio, c, from, to] if axis == "n" => {
            let bound = parse_bound(b)?;
            let (ratio, c) = (num(ratio, "M/n")?, num(c, "c")?);
            let log_ns = sweep_range(num(from, "from")?..=num(to, "to")?, |log_n| {
                sweep::n_params(ratio, log_n, c)
            })?;
            sweep::over_n(bound, ratio, c, log_ns)
        }
        [rho, m, log_n, c] if rho == "rho" => sweep::over_rho(params(m, log_n, c)?, 1..=16),
        _ => return Err("see usage for sweep forms".into()),
    };
    println!("# {}", series.label);
    println!("x,factor");
    for (x, y) in &series.points {
        println!("{x},{y}");
    }
    Ok(())
}

/// `range` itself when at least one of its points has valid parameters;
/// an empty or reversed range, or one where every point fails, is an
/// error naming the first point's failure.
fn sweep_range<X: Copy>(
    range: std::ops::RangeInclusive<X>,
    params: impl Fn(X) -> Result<Params, partial_compaction::ParamsError>,
) -> Result<std::ops::RangeInclusive<X>, String>
where
    std::ops::RangeInclusive<X>: Iterator<Item = X>,
{
    let mut first_error = None;
    for x in range.clone() {
        match params(x) {
            Ok(_) => return Ok(range),
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    Err(first_error.map_or_else(|| "empty range".to_owned(), |e| e.to_string()))
}

fn cmd_worst_case(args: &[String]) -> Result<(), String> {
    use partial_compaction::exhaustive::{
        try_worst_case_with, ResumeError, SearchOutcome, SearchPolicy,
    };
    let mut positional: Vec<String> = Vec::new();
    let mut max_states = 50_000_000usize;
    let flags = Flags::parse(Cmd::WorstCase, args, |arg, args| {
        match arg {
            "--max-states" => max_states = args.parse(arg)?,
            flag if flag.starts_with("--") => return Ok(false),
            _ => positional.push(arg.to_owned()),
        }
        Ok(true)
    })?;
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
    let params = params(m, log_n, "10")?;
    if params.m() > 16 || params.log_n() > 3 {
        return Err(format!(
            "exhaustive search is toy-scale only (M <= 16, log n <= 3); got {params}"
        ));
    }
    let run = &flags.run;
    // Asking for the artifact implies collecting it.
    if flags.metrics_out.is_some() {
        metrics::enable();
    }
    let mut heartbeat = Heartbeat::new("worst-case", &flags.progress)
        .map_err(|e| format!("progress stream: {e}"))?;
    // Total is unknown ahead of time (that is what the search computes),
    // so `done` counts interned states with no ETA.
    let checkpoint = flags.checkpoint.as_ref();
    let outcome = try_worst_case_with(params, policy, max_states, run, checkpoint, |pulse| {
        heartbeat.tick(
            pulse.seen_states as u64,
            0,
            &[
                ("levels", Json::from(pulse.levels as u64)),
                ("frontier_states", Json::from(pulse.frontier_states as u64)),
                ("resident_bytes", Json::from(pulse.resident_bytes)),
            ],
        );
    });
    heartbeat
        .finish()
        .map_err(|e| format!("progress stream: {e}"))?;
    let report = match outcome.map_err(|e| match e {
        ResumeError::Search(e) => format!("parameters not toy enough: {e}"),
        e => e.to_string(),
    })? {
        SearchOutcome::Complete(report) => report,
        SearchOutcome::Paused { levels_done } => {
            // Only a checkpointed search pauses.
            if let Some(opts) = checkpoint {
                eprintln!(
                    "paused after {levels_done} BFS levels; \
                     checkpoint -> {} (continue with --resume)",
                    opts.path.display()
                );
            }
            return Ok(());
        }
    };
    if let Some(path) = &flags.metrics_out {
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
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let reader = TraceReader::new(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut heap = Heap::with_c(reader.c());
    let mut events = 0usize;
    for event in reader {
        event
            .map_err(|e| e.to_string())?
            .apply(&mut heap)
            .map_err(|e| format!("trace invalid at event {events}: {e}"))?;
        events += 1;
    }
    println!(
        "trace valid: {events} events, final HS = {} words, {} live objects",
        heap.heap_size().get(),
        heap.live_count()
    );
    Ok(())
}
