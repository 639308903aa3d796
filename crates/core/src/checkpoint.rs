//! The envelope every checkpoint file shares: a pcb-json object whose
//! `format_version`, `kind` and `fingerprint` fields say which loader may
//! read it and for which configuration. The fleet
//! ([`fleet::checkpoint`](crate::fleet::checkpoint)) and the exhaustive
//! search ([`exhaustive::checkpoint`](crate::exhaustive::checkpoint))
//! each add their own payload fields; reading, parsing and the three
//! envelope checks live here, once.

use std::fs;
use std::path::Path;

use pcb_json::Json;

/// What a loader accepts: the envelope fields and the words its error
/// messages use for them.
pub(crate) struct Envelope<'a> {
    /// The `kind` field (`"fleet"`, `"worst-case"`).
    pub kind: &'a str,
    /// The `format_version` this build reads.
    pub version: u64,
    /// The fingerprint of the configuration being resumed.
    pub fingerprint: u64,
    /// Completes "not a … checkpoint".
    pub noun: &'a str,
    /// Completes "checkpoint belongs to a different …".
    pub scope: &'a str,
}

/// Reads the checkpoint at `path` and checks its envelope against
/// `expect`, returning the parsed document for the caller's payload
/// fields. An error names what is wrong without the path; callers
/// prefix it.
pub(crate) fn open(path: &Path, expect: &Envelope<'_>) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = json.get("format_version").and_then(Json::as_u64);
    if version != Some(expect.version) {
        return Err(format!(
            "format version {version:?} (this build reads {})",
            expect.version
        ));
    }
    if json.get("kind").and_then(Json::as_str) != Some(expect.kind) {
        return Err(format!("not a {} checkpoint", expect.noun));
    }
    if json.get("fingerprint").and_then(Json::as_u64) != Some(expect.fingerprint) {
        return Err(format!(
            "fingerprint mismatch: checkpoint belongs to a different {}",
            expect.scope
        ));
    }
    Ok(json)
}

/// Writes via a sibling temp file and rename, so an interrupted save
/// never corrupts the previous checkpoint.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "checkpoint".into());
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a checkpoint's configuration description string into its
/// fingerprint.
pub(crate) fn hash_desc(desc: &str) -> u64 {
    desc.bytes()
        .fold(0x5bf0_3635_06e6_cedf, |h, b| splitmix64(h ^ u64::from(b)))
}

#[cfg(test)]
mod tests {
    use crate::exhaustive::{self, ResumeError, SearchPolicy};
    use crate::fleet::{self, CheckpointOptions, FleetConfig, FleetError};
    use crate::{Params, RunConfig};
    use pcb_json::Json;

    /// Malformed variants of the valid checkpoint text `valid`, each
    /// with the words its error must contain.
    fn malformed(valid: &str) -> Vec<(&'static str, String, &'static str)> {
        let Json::Object(doc) = Json::parse(valid).expect("valid checkpoint") else {
            panic!("a checkpoint is an object")
        };
        let with = |key: &str, value: Option<Json>| {
            let mut doc = doc.clone();
            match value {
                Some(value) => doc.insert(key.into(), value),
                None => doc.remove(key),
            };
            format!("{}\n", Json::Object(doc))
        };
        vec![
            (
                "non-object JSON",
                "[1, 2, 3]\n".into(),
                "format version None",
            ),
            (
                "missing version",
                with("format_version", None),
                "format version None",
            ),
            (
                "wrong version",
                with("format_version", Some(Json::from(99u64))),
                "format version Some(99)",
            ),
            (
                "wrong kind",
                with("kind", Some(Json::from("neither"))),
                "not a",
            ),
            (
                "truncated file",
                valid[..valid.len() / 2].into(),
                "invalid JSON",
            ),
        ]
    }

    #[test]
    fn both_loaders_reject_the_same_malformed_envelopes() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        let fleet_path = dir.join(format!("pcb-envelope-{pid}-fleet.json"));
        let cfg = FleetConfig {
            tenants: 16,
            shards: 4,
            ..FleetConfig::default()
        };
        let run = RunConfig::default();
        fleet::run_checkpointed(
            &cfg,
            &run,
            &CheckpointOptions::new(&fleet_path).stop_after(2),
        )
        .expect("fleet pauses");
        let resume_fleet = || {
            fleet::run_checkpointed(
                &cfg,
                &run,
                &CheckpointOptions::new(&fleet_path).resume(true),
            )
        };

        let search_path = dir.join(format!("pcb-envelope-{pid}-search.json"));
        let params = Params::new(6, 1, 10).expect("toy params");
        let search = |opts: &CheckpointOptions| {
            exhaustive::try_worst_case_resumable(
                params,
                SearchPolicy::FirstFit,
                1 << 20,
                &run,
                opts,
            )
        };
        search(&CheckpointOptions::new(&search_path).stop_after(2)).expect("search pauses");
        let resume_search = || search(&CheckpointOptions::new(&search_path).resume(true));

        let fleet_valid = std::fs::read_to_string(&fleet_path).unwrap();
        let search_valid = std::fs::read_to_string(&search_path).unwrap();
        for ((case, fleet_text, words), (_, search_text, _)) in malformed(&fleet_valid)
            .into_iter()
            .zip(malformed(&search_valid))
        {
            std::fs::write(&fleet_path, fleet_text).unwrap();
            match resume_fleet() {
                Err(FleetError::Checkpoint(msg)) => assert!(msg.contains(words), "{case}: {msg}"),
                other => panic!("fleet, {case}: {other:?}"),
            }
            std::fs::write(&search_path, search_text).unwrap();
            match resume_search() {
                Err(ResumeError::Checkpoint(msg)) => assert!(msg.contains(words), "{case}: {msg}"),
                other => panic!("search, {case}: {other:?}"),
            }
        }
        std::fs::remove_file(&fleet_path).ok();
        std::fs::remove_file(&search_path).ok();
    }
}
