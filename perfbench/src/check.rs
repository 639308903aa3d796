//! Result checks: fields pinned in `perfbench/expected.json`, plus
//! invariants that hold for any seed and size.
//!
//! Checks compare named fields, never a digest of a whole report, so a
//! report that gains fields still passes.

use pcb_json::Json;

/// The pinned results, embedded at build time.
const EXPECTED: &str = include_str!("../expected.json");

/// Collected mismatches of one run.
#[derive(Debug, Default)]
pub struct Check {
    /// One line per failed check.
    pub mismatches: Vec<String>,
}

impl Check {
    /// Records a mismatch unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Compares integer fields against a pin object.
    pub fn pinned_u64(&mut self, pins: &Json, fields: &[(&str, u64)]) {
        for &(field, got) in fields {
            match pins.get(field).and_then(Json::as_u64) {
                Some(want) => {
                    self.expect(got == want, || format!("{field}: {got} != pinned {want}"))
                }
                None => self.mismatches.push(format!("{field}: no integer pin")),
            }
        }
    }

    /// Compares float fields against a pin object, exactly: the runs are
    /// deterministic, so any difference is a change in behaviour.
    pub fn pinned_f64(&mut self, pins: &Json, fields: &[(&str, f64)]) {
        for &(field, got) in fields {
            match pins.get(field).and_then(Json::as_f64) {
                Some(want) => {
                    self.expect(got == want, || format!("{field}: {got} != pinned {want}"))
                }
                None => self.mismatches.push(format!("{field}: no numeric pin")),
            }
        }
    }
}

/// The pin object of a workload (and, for the fleet, of one seed), if
/// any was recorded.
///
/// # Panics
///
/// Panics if the embedded `expected.json` is not valid JSON, which is a
/// defect of this package rather than of any input.
pub fn pins(workload: &str, seed: Option<u64>) -> Option<Json> {
    let all = Json::parse(EXPECTED).expect("expected.json is valid JSON");
    let entry = all.get(workload)?;
    match seed {
        Some(seed) => entry.get(&seed.to_string()).cloned(),
        None => Some(entry.clone()),
    }
}
