//! Fleet checkpoint/resume: shard-granularity snapshots in pcb-json.
//!
//! A fleet run is a fold over shards in a fixed order, so the complete
//! state of a partially-finished run is tiny: the merged
//! [`FleetAccumulator`] and how many shards have been folded (the
//! resident-bytes figure follows from the shard count). `save`
//! serializes exactly that —
//! plus a format version and a **fingerprint** of every input that
//! shapes the result — after each chunk; `load` refuses checkpoints
//! from any other configuration, so a resumed run is guaranteed to
//! produce a report byte-identical to an uninterrupted one.
//!
//! The fingerprint deliberately excludes the thread count: shard
//! boundaries and merge order are pure functions of the configuration,
//! so a run checkpointed under `--threads 8` may be resumed under
//! `--threads 1` (or vice versa) without changing a byte of the output.
//!
//! Writes are atomic (temp file + rename), so a run killed mid-save
//! leaves the previous checkpoint intact.

use std::path::PathBuf;

use pcb_json::{Json, ToJson};
use pcb_metrics::Histogram;

use super::{
    FailureCause, FleetAccumulator, FleetConfig, FleetError, FleetReport, TenantFailure, HEAT_COLS,
    MAX_FAILURE_RECORDS, WASTE_BUCKETS,
};
pub(crate) use crate::checkpoint::hash_desc;
use crate::checkpoint::{self as envelope, write_atomic, Envelope};
use crate::config::RunConfig;

/// Version stamp embedded in every checkpoint; bumped whenever the
/// serialized layout changes incompatibly (v2: waste-attribution
/// vectors, per-bucket rollups, and the metric plane joined the
/// accumulator; v3: the metric plane and the resident-bytes figure
/// left, the waste and heap-size histograms joined).
pub const FORMAT_VERSION: u64 = 3;

/// How a checkpointed fleet run behaves.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Where the checkpoint file lives.
    pub path: PathBuf,
    /// Save after every this many shards (values < 1 behave as 1).
    pub every: usize,
    /// Continue from an existing checkpoint instead of starting over.
    pub resume: bool,
    /// Stop (with [`FleetOutcome::Paused`]) after this many shards —
    /// the deterministic stand-in for "the process was killed here",
    /// used by the kill/resume tests and CI gate.
    pub stop_after: Option<usize>,
}

impl CheckpointOptions {
    /// Options with the default cadence (every 16 shards), no resume.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            path: path.into(),
            every: 16,
            resume: false,
            stop_after: None,
        }
    }

    /// Overrides the checkpoint cadence.
    pub fn every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }

    /// Sets the resume flag.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Stops after `shards` shards.
    pub fn stop_after(mut self, shards: usize) -> Self {
        self.stop_after = Some(shards);
        self
    }
}

/// The result of a checkpointed fleet run.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per run; the report is the point
pub enum FleetOutcome {
    /// Every shard ran; the aggregate report.
    Complete(FleetReport),
    /// The run stopped at `stop_after` with a checkpoint on disk;
    /// resume to continue.
    Paused {
        /// Shards folded into the checkpoint so far.
        shards_done: usize,
        /// Total shards the full run will fold.
        shards_total: usize,
    },
}

/// A checkpoint restored by [`load`], ready to continue the fold.
pub(crate) struct ResumeState {
    pub shards_done: usize,
    pub accumulator: FleetAccumulator,
}

/// Hash of every input that shapes the fleet result. The thread count
/// is deliberately excluded (see the module docs).
pub(crate) fn fingerprint(cfg: &FleetConfig, run: &RunConfig) -> u64 {
    hash_desc(&format!(
        "{}|{}|{}|{:?}|{}|{}",
        cfg.tenants, cfg.shards, cfg.manager, cfg.mixer, run.chaos, run.paranoia,
    ))
}

/// Serializes the current fold state to `opts.path`, atomically.
pub(crate) fn save(
    cfg: &FleetConfig,
    run: &RunConfig,
    opts: &CheckpointOptions,
    shards_total: usize,
    shards_done: usize,
    acc: &FleetAccumulator,
) -> Result<(), FleetError> {
    let json = Json::object([
        ("format_version", Json::from(FORMAT_VERSION)),
        ("kind", Json::from("fleet")),
        ("fingerprint", Json::from(fingerprint(cfg, run))),
        ("shards_done", Json::from(shards_done)),
        ("shards_total", Json::from(shards_total)),
        ("accumulator", accumulator_to_json(acc)),
    ]);
    write_atomic(&opts.path, &format!("{json}\n"))
        .map_err(|e| FleetError::Checkpoint(format!("writing {}: {e}", opts.path.display())))
}

/// Reads and validates a checkpoint for this exact `(cfg, run)` pair.
pub(crate) fn load(
    cfg: &FleetConfig,
    run: &RunConfig,
    opts: &CheckpointOptions,
    shards_total: usize,
    kinds: usize,
    size_buckets: usize,
) -> Result<ResumeState, FleetError> {
    let path = &opts.path;
    let fail = |msg: String| FleetError::Checkpoint(format!("{}: {msg}", path.display()));
    let expect = Envelope {
        kind: "fleet",
        version: FORMAT_VERSION,
        fingerprint: fingerprint(cfg, run),
        noun: "fleet",
        scope: "fleet configuration (tenants/shards/manager/mixer/chaos/paranoia)",
    };
    let json = envelope::open(path, &expect).map_err(fail)?;
    let shards_done = json
        .get("shards_done")
        .and_then(Json::as_u64)
        .ok_or_else(|| fail("missing shards_done".into()))? as usize;
    let total = json
        .get("shards_total")
        .and_then(Json::as_u64)
        .ok_or_else(|| fail("missing shards_total".into()))? as usize;
    if total != shards_total || shards_done > total {
        return Err(fail(format!(
            "shard topology mismatch: checkpoint has {shards_done}/{total}, run expects {shards_total}"
        )));
    }
    let acc = json
        .get("accumulator")
        .ok_or_else(|| fail("missing accumulator".into()))?;
    let restored = accumulator_from_json(acc, kinds, size_buckets).map_err(fail)?;
    // Folding the restored state into an empty accumulator sums its
    // additive totals with the same checked arithmetic every later shard
    // merge uses.
    let mut accumulator = FleetAccumulator::new(kinds, size_buckets);
    accumulator
        .merge(&restored)
        .map_err(|key| fail(format!("`{key}` overflows u64")))?;
    check_counts(&accumulator, cfg, shards_total, shards_done).map_err(fail)?;
    Ok(ResumeState {
        shards_done,
        accumulator,
    })
}

/// Checks the restored counts against the shards the checkpoint claims
/// to have folded: a checkpoint edited (or corrupted) into impossible
/// counts would otherwise resume into a report with wrong totals.
fn check_counts(
    acc: &FleetAccumulator,
    cfg: &FleetConfig,
    shards_total: usize,
    shards_done: usize,
) -> Result<(), String> {
    let sum = |v: &[u64]| v.iter().try_fold(0u64, |a, &b| a.checked_add(b));
    let expected = super::shard_start(cfg.tenants, shards_total, shards_done);
    if acc.tenants.checked_add(acc.failed_tenants) != Some(expected) {
        return Err(format!(
            "accumulator holds {} recorded + {} quarantined tenants, but \
             {shards_done} shards hold {expected}",
            acc.tenants, acc.failed_tenants
        ));
    }
    // Each recorded tenant lands once in every per-tenant tally.
    for (key, total) in [
        ("kind_counts", sum(&acc.kind_counts)),
        ("bucket_tenants", sum(&acc.bucket_tenants)),
        ("waste_hist", sum(&acc.waste_hist)),
        ("heat", sum(&acc.heat)),
        ("waste_milli", Some(acc.waste_milli.count())),
        ("heap_size", Some(acc.heap_size.count())),
    ] {
        if total != Some(acc.tenants) {
            return Err(format!(
                "`{key}` does not sum to the {} recorded tenants",
                acc.tenants
            ));
        }
    }
    if acc.panics.checked_add(acc.engine_failures) != Some(acc.failed_tenants) {
        return Err(format!(
            "{} panics + {} engine failures are not the {} quarantined tenants",
            acc.panics, acc.engine_failures, acc.failed_tenants
        ));
    }
    if acc.max_tenant >= cfg.tenants {
        return Err(format!(
            "max_tenant {} is outside the fleet's {} tenants",
            acc.max_tenant, cfg.tenants
        ));
    }
    Ok(())
}

fn accumulator_to_json(acc: &FleetAccumulator) -> Json {
    Json::object([
        ("tenants", Json::from(acc.tenants)),
        (
            "waste_hist",
            Json::array(acc.waste_hist.iter().map(|&c| Json::from(c))),
        ),
        ("waste_sum", Json::from(acc.waste_sum)),
        // NEG_INFINITY (no tenant recorded yet) serializes as `null`.
        ("max_waste", Json::from(acc.max_waste)),
        ("max_tenant", Json::from(acc.max_tenant)),
        (
            "kind_counts",
            Json::array(acc.kind_counts.iter().map(|&c| Json::from(c))),
        ),
        (
            "kind_waste_sum",
            Json::array(acc.kind_waste_sum.iter().map(|&s| Json::from(s))),
        ),
        ("heat", Json::array(acc.heat.iter().map(|&c| Json::from(c)))),
        (
            "kind_external",
            Json::array(acc.kind_external.iter().map(|&w| Json::from(w))),
        ),
        (
            "kind_ghost",
            Json::array(acc.kind_ghost.iter().map(|&w| Json::from(w))),
        ),
        (
            "kind_internal",
            Json::array(acc.kind_internal.iter().map(|&w| Json::from(w))),
        ),
        (
            "bucket_waste_sum",
            Json::array(acc.bucket_waste_sum.iter().map(|&s| Json::from(s))),
        ),
        (
            "bucket_tenants",
            Json::array(acc.bucket_tenants.iter().map(|&t| Json::from(t))),
        ),
        ("waste_milli", acc.waste_milli.to_json()),
        ("heap_size", acc.heap_size.to_json()),
        ("objects_placed", Json::from(acc.objects_placed)),
        ("words_placed", Json::from(acc.words_placed)),
        ("words_moved", Json::from(acc.words_moved)),
        ("failed_tenants", Json::from(acc.failed_tenants)),
        ("panics", Json::from(acc.panics)),
        ("engine_failures", Json::from(acc.engine_failures)),
        (
            "failures",
            Json::array(acc.failures.iter().map(ToJson::to_json)),
        ),
    ])
}

fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn f64_field(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

/// The array `key` of exactly `len` entries, each read by `entry`
/// (`Json::as_u64` or `Json::as_f64`).
fn vec_field<T>(
    json: &Json,
    key: &str,
    len: usize,
    entry: fn(&Json) -> Option<T>,
) -> Result<Vec<T>, String> {
    let items = json
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))?;
    if items.len() != len {
        return Err(format!(
            "array `{key}` has {} entries, expected {len}",
            items.len()
        ));
    }
    items
        .iter()
        .map(|v| entry(v).ok_or_else(|| format!("malformed entry in `{key}`")))
        .collect()
}

fn hist_field(json: &Json, key: &str) -> Result<Histogram, String> {
    let field = json
        .get(key)
        .ok_or_else(|| format!("missing histogram `{key}`"))?;
    Histogram::from_json(field).map_err(|e| format!("histogram `{key}`: {e}"))
}

fn accumulator_from_json(
    json: &Json,
    kinds: usize,
    size_buckets: usize,
) -> Result<FleetAccumulator, String> {
    let failures_json = json
        .get("failures")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing array `failures`".to_string())?;
    if failures_json.len() > MAX_FAILURE_RECORDS {
        return Err(format!(
            "{} failure records exceed the cap of {MAX_FAILURE_RECORDS}",
            failures_json.len()
        ));
    }
    let mut failures = Vec::with_capacity(failures_json.len());
    for entry in failures_json {
        let detail = entry
            .get("detail")
            .and_then(Json::as_str)
            .ok_or_else(|| "failure record missing `detail`".to_string())?
            .to_string();
        let cause = match entry.get("cause").and_then(Json::as_str) {
            Some("panic") => FailureCause::Panic(detail),
            Some("engine") => FailureCause::Engine(detail),
            other => return Err(format!("unknown failure cause {other:?}")),
        };
        failures.push(TenantFailure {
            tenant: u64_field(entry, "tenant")?,
            family: entry
                .get("family")
                .and_then(Json::as_str)
                .ok_or_else(|| "failure record missing `family`".to_string())?
                .to_string(),
            cause,
        });
    }
    Ok(FleetAccumulator {
        tenants: u64_field(json, "tenants")?,
        waste_hist: vec_field(json, "waste_hist", WASTE_BUCKETS, Json::as_u64)?,
        waste_sum: f64_field(json, "waste_sum")?,
        // `null` (serialized NEG_INFINITY) means no tenant recorded yet.
        max_waste: json
            .get("max_waste")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NEG_INFINITY),
        max_tenant: u64_field(json, "max_tenant")?,
        kind_counts: vec_field(json, "kind_counts", kinds, Json::as_u64)?,
        kind_waste_sum: vec_field(json, "kind_waste_sum", kinds, Json::as_f64)?,
        heat: vec_field(json, "heat", size_buckets * HEAT_COLS, Json::as_u64)?,
        kind_external: vec_field(json, "kind_external", kinds, Json::as_u64)?,
        kind_ghost: vec_field(json, "kind_ghost", kinds, Json::as_u64)?,
        kind_internal: vec_field(json, "kind_internal", kinds, Json::as_u64)?,
        bucket_waste_sum: vec_field(json, "bucket_waste_sum", size_buckets, Json::as_f64)?,
        bucket_tenants: vec_field(json, "bucket_tenants", size_buckets, Json::as_u64)?,
        waste_milli: hist_field(json, "waste_milli")?,
        heap_size: hist_field(json, "heap_size")?,
        objects_placed: u64_field(json, "objects_placed")?,
        words_placed: u64_field(json, "words_placed")?,
        words_moved: u64_field(json, "words_moved")?,
        failed_tenants: u64_field(json, "failed_tenants")?,
        panics: u64_field(json, "panics")?,
        engine_failures: u64_field(json, "engine_failures")?,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_every_shaping_input_but_not_threads() {
        let cfg = FleetConfig::default();
        let run = RunConfig::default();
        let base = fingerprint(&cfg, &run);
        assert_eq!(
            base,
            fingerprint(&cfg, &run.with_threads(8)),
            "threads excluded"
        );
        let mut other = cfg;
        other.tenants += 1;
        assert_ne!(base, fingerprint(&other, &run));
        assert_ne!(base, fingerprint(&cfg, &run.with_paranoia(4)));
        // A plan with a seed but no rates injects nothing — it is the
        // empty plan behaviorally, so it must fingerprint identically.
        assert_eq!(
            base,
            fingerprint(&cfg, &run.with_chaos(pcb_chaos::FaultPlan::new(1)))
        );
        let armed = pcb_chaos::FaultPlan::new(1).with_rate(pcb_chaos::FaultSite::TenantPanic, 50);
        assert_ne!(base, fingerprint(&cfg, &run.with_chaos(armed)));
    }

    #[test]
    fn accumulator_round_trips_through_json_exactly() {
        let mut acc = FleetAccumulator::new(3, 4);
        acc.tenants = 17;
        acc.waste_hist[5] = 9;
        acc.waste_sum = 23.0625;
        acc.max_waste = 1.734_002_3;
        acc.max_tenant = 11;
        acc.kind_counts[2] = 17;
        acc.kind_waste_sum[2] = 23.0625;
        acc.heat[7] = 4;
        acc.objects_placed = 1234;
        acc.words_placed = 99_999;
        acc.words_moved = 42;
        acc.kind_external[1] = 77;
        acc.kind_ghost[0] = 5;
        acc.kind_internal[2] = 13;
        acc.bucket_waste_sum[3] = 6.5;
        acc.bucket_tenants[3] = 4;
        acc.waste_milli.record(1734);
        acc.heap_size.record(2048);
        acc.record_failure(3, "churn", FailureCause::Panic("boom".into()));
        let json = accumulator_to_json(&acc);
        let back = accumulator_from_json(&json, 3, 4).expect("round trip");
        assert_eq!(back.tenants, acc.tenants);
        assert_eq!(back.waste_hist, acc.waste_hist);
        assert_eq!(back.waste_sum.to_bits(), acc.waste_sum.to_bits());
        assert_eq!(back.max_waste.to_bits(), acc.max_waste.to_bits());
        assert_eq!(back.kind_waste_sum, acc.kind_waste_sum);
        assert_eq!(back.kind_external, acc.kind_external);
        assert_eq!(back.kind_ghost, acc.kind_ghost);
        assert_eq!(back.kind_internal, acc.kind_internal);
        assert_eq!(back.bucket_waste_sum, acc.bucket_waste_sum);
        assert_eq!(back.bucket_tenants, acc.bucket_tenants);
        assert_eq!(back.waste_milli, acc.waste_milli);
        assert_eq!(back.heap_size, acc.heap_size);
        assert_eq!(back.failures, acc.failures);
    }

    #[test]
    fn empty_accumulator_neg_infinity_max_survives_the_null_round_trip() {
        let acc = FleetAccumulator::new(1, 1);
        let text = accumulator_to_json(&acc).to_string();
        assert!(text.contains("\"max_waste\":null"), "{text}");
        let back = accumulator_from_json(&Json::parse(&text).unwrap(), 1, 1).expect("round trip");
        assert_eq!(back.max_waste, f64::NEG_INFINITY);
    }
}
