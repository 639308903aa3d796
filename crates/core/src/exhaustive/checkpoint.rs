//! Search checkpoint/resume: level-granularity BFS snapshots in pcb-json.
//!
//! A level-synchronous BFS is fully described between levels by its
//! seen-set, its frontier, and the running maximum — so that is exactly
//! what `save` serializes (packed payload words, flat `u16` arrays)
//! and `restore` reloads. The reachable set, the worst span, and the
//! level count do not depend on where the search was cut, so a resumed
//! search certifies the same [`WorstCase`](super::WorstCase) as an
//! uninterrupted one; of the stats only `resident_bytes` (capacity
//! history) may differ.
//!
//! The fingerprint covers `(M, log n, policy)` — the inputs that define
//! the reachable set. It deliberately excludes the thread count (the
//! seen-set is re-sharded by hash on restore, so a run checkpointed
//! under 8 threads resumes under 1) and `max_states` (so a search that
//! tripped the cap can be resumed with a larger one).

use pcb_json::Json;

use super::{packed::PackedState, ResumeError, Search, SearchPolicy};
use crate::checkpoint::{self as envelope, hash_desc, write_atomic, Envelope};
use crate::fleet::CheckpointOptions;
use crate::params::Params;

/// Version stamp embedded in every search checkpoint.
pub const FORMAT_VERSION: u64 = 1;

fn fingerprint(params: Params, policy: SearchPolicy) -> u64 {
    hash_desc(&format!(
        "worst-case|{}|{}|{}",
        params.m(),
        params.log_n(),
        policy.name()
    ))
}

/// Flattens packed payloads into `[len, w0.., len, w0..]`.
fn flatten<'a>(payloads: impl Iterator<Item = &'a [u16]>) -> Json {
    let mut flat: Vec<Json> = Vec::new();
    for payload in payloads {
        flat.push(Json::from(payload.len() as u64));
        flat.extend(payload.iter().map(|&w| Json::from(u64::from(w))));
    }
    Json::Array(flat)
}

/// Parses a flat `[len, w0.., len, w0..]` array back into payloads.
fn unflatten(json: &Json, key: &str) -> Result<Vec<Vec<u16>>, String> {
    let items = json
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))?;
    let word = |j: &Json| -> Result<u16, String> {
        j.as_u64()
            .and_then(|v| u16::try_from(v).ok())
            .ok_or_else(|| format!("non-u16 entry in `{key}`"))
    };
    let mut payloads = Vec::new();
    let mut i = 0usize;
    while i < items.len() {
        let len = word(&items[i])? as usize;
        i += 1;
        if i + len > items.len() {
            return Err(format!("truncated payload in `{key}`"));
        }
        let payload: Result<Vec<u16>, String> = items[i..i + len].iter().map(word).collect();
        payloads.push(payload?);
        i += len;
    }
    Ok(payloads)
}

/// Serializes the between-levels search state to `opts.path`, atomically.
pub(super) fn save(
    search: &Search,
    params: Params,
    policy: SearchPolicy,
    opts: &CheckpointOptions,
) -> Result<(), ResumeError> {
    let json = Json::object([
        ("format_version", Json::from(FORMAT_VERSION)),
        ("kind", Json::from("worst-case")),
        ("fingerprint", Json::from(fingerprint(params, policy))),
        ("levels", Json::from(search.stats.levels)),
        ("peak_frontier", Json::from(search.stats.peak_frontier)),
        ("worst", Json::from(search.worst)),
        (
            "frontier",
            flatten(search.frontier.iter().map(PackedState::payload)),
        ),
        (
            "seen",
            flatten(search.seen.iter().flat_map(|shard| shard.payloads())),
        ),
    ]);
    write_atomic(&opts.path, &format!("{json}\n"))
        .map_err(|e| ResumeError::Checkpoint(format!("writing {}: {e}", opts.path.display())))
}

/// Reloads a checkpoint into a freshly-constructed [`Search`], replacing
/// its root state wholesale.
pub(super) fn restore(
    search: &mut Search,
    params: Params,
    policy: SearchPolicy,
    opts: &CheckpointOptions,
) -> Result<(), ResumeError> {
    let path = &opts.path;
    let fail = |msg: String| ResumeError::Checkpoint(format!("{}: {msg}", path.display()));
    let expect = Envelope {
        kind: "worst-case",
        version: FORMAT_VERSION,
        fingerprint: fingerprint(params, policy),
        noun: "worst-case search",
        scope: "search (M/log n/policy)",
    };
    let json = envelope::open(path, &expect).map_err(fail)?;
    let u64_field = |key: &str| -> Result<u64, ResumeError> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| fail(format!("missing or non-integer field `{key}`")))
    };
    let levels = u64_field("levels")? as usize;
    let peak_frontier = u64_field("peak_frontier")? as usize;
    let worst = u64_field("worst")?;
    let frontier: Vec<PackedState> = unflatten(&json, "frontier")
        .map_err(fail)?
        .iter()
        .map(|p| PackedState::from_payload(p))
        .collect();
    let seen_payloads = unflatten(&json, "seen").map_err(fail)?;

    // Rebuild the seen-set from scratch, re-sharding by hash into this
    // run's interner count (the checkpoint may have been written under a
    // different thread count).
    let shards = search.shards;
    let mut seen: Vec<super::intern::Interner> = (0..shards)
        .map(|_| super::intern::Interner::new())
        .collect();
    for payload in &seen_payloads {
        let state = PackedState::from_payload(payload);
        seen[(state.hash64() % shards as u64) as usize].insert(&state);
    }
    let interned: usize = seen.iter().map(super::intern::Interner::len).sum();
    if interned != seen_payloads.len() {
        return Err(fail(format!(
            "seen-set has {} duplicate states ({} payloads, {interned} distinct)",
            seen_payloads.len() - interned,
            seen_payloads.len()
        )));
    }

    search.seen = seen;
    search.frontier = frontier;
    search.worst = worst;
    search.stats.levels = levels;
    search.stats.peak_frontier = peak_frontier;
    // The levels before the pause raised the registry's gauges in the
    // paused process; raise them here to the same high-water marks, so a
    // resumed run exports what an uninterrupted one does.
    // `resident_bytes` follows this process's allocations.
    pcb_metrics::record_gauge_max("exhaustive.frontier_states", peak_frontier as u64);
    pcb_metrics::record_gauge_max("exhaustive.levels", levels as u64);
    pcb_metrics::record_gauge_max("exhaustive.interned_states", interned as u64);
    pcb_metrics::record_gauge_max(
        "exhaustive.resident_bytes",
        search
            .seen
            .iter()
            .map(super::intern::Interner::resident_bytes)
            .sum(),
    );
    Ok(())
}
