//! `fleet-mixed`: `fleet::run` over many small tenant heaps (default mix,
//! first-fit, the CLI's 256 shards) on one worker thread. The seed is
//! the mixer seed.
//!
//! The traced run cannot see inside `fleet::run`, so it re-runs every
//! tenant through the same public steps (`WorkloadMixer`, `try_build`,
//! `Execution::run_summary`): once untimed per layer, for tenant and
//! construction times, and once with decorators, for the layer split.
//! Aggregation is what `fleet::run` spends beyond its tenants: its wall
//! minus the untraced replica's tenant and construction times.

use std::time::Instant;

use partial_compaction::fleet::{self, FleetConfig, FleetReport};
use partial_compaction::heap::{Execution, Heap, MemoryManager, Program};
use partial_compaction::workload::{MixerConfig, WorkloadMixer};
use partial_compaction::{ManagerKind, Params, RunConfig};

use crate::check::{self, Check};
use crate::ledger::{HeapPass, Ledger};
use crate::pf::ratio;
use crate::probe::{
    ns_since, quantile, record_ns, Layer, Probe, SpaceReplay, TimedManager, TimedProgram,
};
use crate::report::Metric;
use crate::{repeat_for, timed_setup, Run, RunError, Samples, Stopwatch, Times};

/// The fleet's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSize {
    /// Tenant heaps.
    pub tenants: u64,
    /// Aggregation shards.
    pub shards: usize,
}

/// The measured size: 20 000 tenants in 256 shards.
pub const FULL: FleetSize = FleetSize {
    tenants: 20_000,
    shards: 256,
};

const MANAGER: ManagerKind = ManagerKind::FirstFit;

/// What one run starts from: the configuration, the mixer, and the
/// census of tenant families and size buckets the seed produces (which
/// the result check compares the report against).
struct Inputs {
    cfg: FleetConfig,
    mixer: WorkloadMixer,
    kind_counts: Vec<u64>,
    bucket_tenants: Vec<u64>,
}

fn setup(size: FleetSize, seed: u64) -> Result<Inputs, String> {
    let cfg = FleetConfig {
        tenants: size.tenants,
        shards: size.shards,
        manager: MANAGER,
        mixer: MixerConfig {
            seed,
            ..MixerConfig::default()
        },
    };
    let mixer = WorkloadMixer::new(cfg.mixer)?;
    let mut kind_counts = vec![0; mixer.kinds().len()];
    let mut bucket_tenants = vec![0; mixer.size_buckets()];
    for index in 0..size.tenants {
        let spec = mixer.tenant(index);
        kind_counts[spec.kind] += 1;
        bucket_tenants[spec.size_rank] += 1;
    }
    Ok(Inputs {
        cfg,
        mixer,
        kind_counts,
        bucket_tenants,
    })
}

fn one_thread() -> RunConfig {
    RunConfig::default().with_threads(1)
}

/// Runs the fleet; returns the report and the (wall, on-CPU) seconds.
fn run_untraced(inputs: &Inputs) -> Result<(Result<FleetReport, String>, Times), RunError> {
    let watch = Stopwatch::start()?;
    let report = fleet::run(&inputs.cfg, &one_thread()).map_err(|e| e.to_string());
    Ok((report, watch.stop()?))
}

fn check(size: FleetSize, seed: u64, inputs: &Inputs, report: &FleetReport, check: &mut Check) {
    let acc = &report.accumulator;
    check.expect(report.tenants == size.tenants, || {
        format!("{} tenants reported, {} run", report.tenants, size.tenants)
    });
    check.expect(acc.kind_counts == inputs.kind_counts, || {
        format!(
            "family counts {:?} != seeded {:?}",
            acc.kind_counts, inputs.kind_counts
        )
    });
    check.expect(acc.bucket_tenants == inputs.bucket_tenants, || {
        format!(
            "bucket counts {:?} != seeded {:?}",
            acc.bucket_tenants, inputs.bucket_tenants
        )
    });
    check.expect(
        report.p50_waste <= report.p99_waste && report.p99_waste <= report.max_waste,
        || format!("waste quantiles out of order: {report:?}"),
    );
    if size == FULL {
        if let Some(pins) = check::pins("fleet-mixed", Some(seed)) {
            check.pinned_u64(
                &pins,
                &[
                    ("objects_placed", acc.objects_placed),
                    ("words_placed", acc.words_placed),
                    ("failed_tenants", acc.failed_tenants),
                ],
            );
            check.pinned_f64(
                &pins,
                &[
                    ("p50_waste", report.p50_waste),
                    ("p99_waste", report.p99_waste),
                    ("max_waste", report.max_waste),
                ],
            );
        }
    }
}

/// The untraced run: repeated fleets for `seconds`.
pub fn untraced(size: FleetSize, seed: u64, seconds: f64) -> Result<Run, RunError> {
    let mut run = Run::default();
    let mut samples = Samples::default();
    repeat_for(&mut run, seconds, 3, |run| {
        run.attempted += size.tenants;
        let inputs = timed_setup(5, 1, || setup(size, seed), &mut samples.setup_s)
            .map_err(RunError::Setup)?;
        let (report, times) = run_untraced(&inputs)?;
        match report {
            Ok(report) => {
                check(size, seed, &inputs, &report, &mut run.check);
                run.failed += report.accumulator.failed_tenants;
                // The accumulator keeps placements, not frees or moves:
                // a fleet's events are its placements.
                let events = report.accumulator.objects_placed as f64;
                samples.push(times, events, report.tenants as f64, 1.0);
            }
            Err(e) => run.fail(format!("run error: {e}")),
        }
        Ok(())
    })?;
    run.metrics = samples.metrics()?;
    Ok(run)
}

/// One tenant's inputs, built the way `fleet::run` builds them.
struct Tenant {
    layer: Layer,
    heap: Heap,
    program: Box<dyn Program>,
    manager: Box<dyn MemoryManager>,
}

fn build_tenant(mixer: &WorkloadMixer, index: u64) -> Result<Tenant, String> {
    let spec = mixer.tenant(index);
    let shape = mixer.shape(&spec);
    let family = mixer.family(&spec);
    let params = Params::new(shape.m, shape.log_n, shape.c).map_err(|e| e.to_string())?;
    let manager = MANAGER.try_build(&params).map_err(|e| e.to_string())?;
    // First-fit never moves, so only a family that expects a budget
    // gets a c-partial heap (as in `fleet::run`).
    let heap = if family.needs_budget() {
        Heap::new(shape.c)
    } else {
        Heap::non_moving()
    };
    let layer = Layer::for_family(family.kind())
        .ok_or_else(|| format!("unknown tenant family {}", family.kind()))?;
    Ok(Tenant {
        layer,
        heap,
        program: mixer.instantiate(&spec),
        manager,
    })
}

/// What re-running every tenant found.
#[derive(Default)]
struct Replica {
    /// Construction time, summed, seconds.
    build_s: f64,
    /// Untraced run time (including the execution's drop), summed, seconds.
    run_s: f64,
    /// Whole-tenant untraced time (construction and run), per tenant, µs.
    tenant_us: Vec<f64>,
    /// Objects placed, summed.
    placed: u64,
    /// Words placed, summed.
    words: u64,
    /// Words moved, summed.
    moved: u64,
    /// Ghost words, summed.
    ghost: u64,
    /// The traced runs' tallies.
    pass: HeapPass,
}

/// Re-runs every tenant twice, back to back: untraced (timed as a
/// whole) and then decorated, so both see the machine in the same state.
/// The traced result must equal the untraced one; referee logs are
/// replayed per tenant, outside the timed regions.
fn replica(inputs: &Inputs, check: &mut Check) -> Result<Replica, String> {
    let tenants = inputs.cfg.tenants;
    let mut replica = Replica {
        tenant_us: Vec::with_capacity(tenants as usize),
        ..Replica::default()
    };
    let mut space = SpaceReplay::default();
    let probe = Probe::shared(0);
    for index in 0..tenants {
        let start = Instant::now();
        let tenant = build_tenant(&inputs.mixer, index)?;
        let built = ns_since(start);
        let untraced = {
            let mut exec = Execution::new(tenant.heap, tenant.program, tenant.manager);
            exec.run_summary()
                .map_err(|e| format!("tenant {index}: {e}"))?
        };
        let total = ns_since(start);
        replica.build_s += built as f64 / 1e9;
        replica.run_s += (total - built) as f64 / 1e9;
        replica.tenant_us.push(total as f64 / 1e3);
        replica.placed += untraced.objects_placed;
        replica.words += untraced.words_placed;
        replica.moved += untraced.words_moved;
        replica.ghost += untraced.ghost_words;

        let tenant = build_tenant(&inputs.mixer, index)?;
        let program = TimedProgram::new(tenant.program, tenant.layer, probe.clone());
        let manager = TimedManager::new(tenant.manager, probe.clone());
        let start = Instant::now();
        probe.borrow_mut().start();
        let traced = {
            let mut exec = Execution::new(tenant.heap, program, manager);
            exec.run_summary()
                .map_err(|e| format!("tenant {index}: {e}"))?
        };
        probe.borrow_mut().stop();
        replica.pass.traced_ns += ns_since(start);
        check.expect(traced == untraced, || {
            format!("tenant {index}: traced result differs: {traced:?} vs {untraced:?}")
        });
        probe.borrow_mut().replay_space(&mut space)?;
    }
    replica.pass.space = space;
    replica.pass.absorb(&probe.borrow());
    Ok(replica)
}

/// The traced run: per repetition, one untraced `fleet::run` and the
/// replica; the ledger reports per-figure medians.
pub fn traced(size: FleetSize, seed: u64, seconds: f64) -> Result<Run, RunError> {
    let mut run = Run::default();
    let mut ledgers: Vec<Vec<Metric>> = Vec::new();
    repeat_for(&mut run, seconds, 1, |run| {
        run.attempted += size.tenants;
        let inputs = setup(size, seed).map_err(RunError::Setup)?;
        let (report, (fleet_s, _)) = run_untraced(&inputs)?;
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                run.fail(format!("run error: {e}"));
                return Ok(());
            }
        };
        check(size, seed, &inputs, &report, &mut run.check);
        run.failed += report.accumulator.failed_tenants;
        let replica = replica(&inputs, &mut run.check).map_err(RunError::Measure)?;
        // The replica stands in for fleet::run's tenants only if it ran
        // the same work.
        let acc = &report.accumulator;
        run.check.expect(
            replica.placed == acc.objects_placed && replica.words == acc.words_placed,
            || {
                format!(
                    "replica placed {} objects / {} words, fleet::run {} / {}",
                    replica.placed, replica.words, acc.objects_placed, acc.words_placed
                )
            },
        );
        let pass = &replica.pass;
        let ledger = Ledger {
            heap: pass.layers(record_ns(pass.records / size.tenants + 1)),
            ghost_move_ratio: ratio(replica.ghost, replica.moved),
            moved_fraction: ratio(replica.moved, replica.words),
            fleet_build_s: replica.build_s,
            tenant_p50_us: quantile(&replica.tenant_us, 0.5),
            tenant_p999_us: quantile(&replica.tenant_us, 0.999),
            aggregate_s: fleet_s - replica.build_s - replica.run_s,
            overhead_pct: 100.0 * (pass.traced_ns as f64 / 1e9 / replica.run_s - 1.0),
            clock_ns: pass.call_ns(),
            // Aggregation is the residual against this wall, so coverage
            // compares the traced tenant layers with the untraced tenant
            // runs taken alongside them.
            untraced_s: fleet_s,
            ..Ledger::default()
        };
        ledgers.push(ledger.metrics());
        Ok(())
    })?;
    run.finish_ledger(ledgers);
    Ok(run)
}
