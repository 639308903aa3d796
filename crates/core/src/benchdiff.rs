//! Structural comparison of benchmark artifacts (`BENCH_search.json`,
//! `BENCH_obs.json`, and future bench files): the regression gate behind
//! `pcb bench diff`.
//!
//! A bench artifact mixes three kinds of fields, and the comparator
//! treats each differently:
//!
//! * **Host metadata** (`smoke`, `threads`, `host_cores`) describes the
//!   machine and mode that produced the numbers. When any of it differs
//!   between the two files, the runs are *not comparable*: every value
//!   delta — including workload-scale identity fields — degrades to a
//!   warning and only the document *structure* (key sets, types, array
//!   lengths) is enforced. A 1-CPU smoke run can therefore be structure-
//!   checked against a checked-in 4-thread full run without gating apples
//!   against oranges.
//! * **Timing** (`*_seconds`, `speedup`, `throughput*`, `*_pct`,
//!   `*overhead*`, `*within_budget*`) is noisy by nature and compares
//!   within a tolerance: relative for magnitudes, absolute (percentage
//!   points) for `*_pct` fields whose baseline legitimately crosses zero.
//! * **Identity** (everything else: names, item counts, event counts,
//!   `reports_identical`, …) is deterministic and must match exactly.

use std::fmt;

use pcb_json::Json;

/// Top-level keys describing the producing host/mode rather than the
/// measured workload.
const HOST_KEYS: [&str; 3] = ["smoke", "threads", "host_cores"];

/// Whether a leaf key holds a wall-clock-derived (noisy) value.
fn is_timing_key(key: &str) -> bool {
    key.contains("seconds")
        || key.contains("speedup")
        || key.contains("throughput")
        || key.contains("overhead")
        || key.ends_with("_pct")
        || key.contains("within_budget")
}

/// One observation from the comparison, with the JSON path it concerns.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Dotted JSON path (`workloads[2].speedup`).
    pub path: String,
    /// What was observed.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// The outcome of comparing a new artifact against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// False when host metadata differs — timing and identity deltas are
    /// then informational only.
    pub comparable: bool,
    /// Host-metadata differences (never failures).
    pub host_mismatches: Vec<Finding>,
    /// Gate-breaking differences; non-empty means the diff fails.
    pub failures: Vec<Finding>,
    /// Informational differences (tolerated timing drift, or any value
    /// delta between incomparable runs).
    pub warnings: Vec<Finding>,
    /// Leaf values compared.
    pub leaves_checked: usize,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.comparable {
            out.push_str(
                "note: host metadata differs; value deltas are informational, \
                 structure is still enforced\n",
            );
        }
        for finding in &self.host_mismatches {
            out.push_str(&format!("host     {finding}\n"));
        }
        for finding in &self.warnings {
            out.push_str(&format!("warn     {finding}\n"));
        }
        for finding in &self.failures {
            out.push_str(&format!("FAIL     {finding}\n"));
        }
        out.push_str(&format!(
            "{}: {} leaves checked, {} failures, {} warnings\n",
            if self.passed() { "pass" } else { "fail" },
            self.leaves_checked,
            self.failures.len(),
            self.warnings.len(),
        ));
        out
    }
}

struct Differ {
    tolerance_pct: f64,
    comparable: bool,
    report: DiffReport,
}

/// Compares a freshly generated bench artifact against a baseline.
///
/// `tolerance_pct` bounds timing drift: relative percent for magnitudes
/// (`seconds`, `speedup`, `throughput`), absolute percentage points for
/// `*_pct` fields.
///
/// ```
/// use partial_compaction::benchdiff::compare;
/// use pcb_json::Json;
/// let baseline = Json::parse(r#"{"smoke":false,"cells":8,"raw_seconds":1.0}"#).unwrap();
/// let same = compare(&baseline, &baseline, 10.0);
/// assert!(same.passed() && same.comparable);
///
/// let slow = Json::parse(r#"{"smoke":false,"cells":8,"raw_seconds":2.0}"#).unwrap();
/// assert!(!compare(&slow, &baseline, 25.0).passed(), "2x regression trips the gate");
/// ```
pub fn compare(new: &Json, baseline: &Json, tolerance_pct: f64) -> DiffReport {
    // Host metadata decides up front whether values are comparable at all.
    let mut differ = Differ {
        tolerance_pct,
        comparable: true,
        report: DiffReport {
            comparable: true,
            ..DiffReport::default()
        },
    };
    for key in HOST_KEYS {
        let (a, b) = (new.get(key), baseline.get(key));
        if let (Some(a), Some(b)) = (a, b) {
            if a != b {
                differ.comparable = false;
                differ.report.host_mismatches.push(Finding {
                    path: key.to_owned(),
                    message: format!("{a} vs baseline {b}"),
                });
            }
        }
    }
    differ.report.comparable = differ.comparable;
    differ.walk("$", "", new, baseline);
    differ.report
}

/// Convenience wrapper: parse two files and compare them.
///
/// # Errors
///
/// Returns a message if either file cannot be read or parsed.
pub fn compare_files(
    new_path: &str,
    baseline_path: &str,
    tolerance_pct: f64,
) -> Result<DiffReport, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare(
        &load(new_path)?,
        &load(baseline_path)?,
        tolerance_pct,
    ))
}

impl Differ {
    fn fail(&mut self, path: &str, message: String) {
        self.report.failures.push(Finding {
            path: path.to_owned(),
            message,
        });
    }

    fn warn(&mut self, path: &str, message: String) {
        self.report.warnings.push(Finding {
            path: path.to_owned(),
            message,
        });
    }

    /// Value mismatch that would fail on comparable runs: failure or
    /// warning depending on comparability.
    fn mismatch(&mut self, path: &str, message: String) {
        if self.comparable {
            self.fail(path, message);
        } else {
            self.warn(path, message);
        }
    }

    fn walk(&mut self, path: &str, key: &str, new: &Json, baseline: &Json) {
        match (new, baseline) {
            (Json::Object(a), Json::Object(b)) => {
                for (k, vb) in b {
                    match a.get(k) {
                        Some(va) => self.walk(&format!("{path}.{k}"), k, va, vb),
                        // Structure is enforced regardless of comparability.
                        None => self.fail(
                            &format!("{path}.{k}"),
                            "missing from the new artifact".into(),
                        ),
                    }
                }
                for k in a.keys() {
                    if !b.contains_key(k) {
                        self.fail(&format!("{path}.{k}"), "not present in the baseline".into());
                    }
                }
            }
            (Json::Array(a), Json::Array(b)) => {
                if a.len() != b.len() {
                    // Array shape is structure: enforced even across hosts.
                    self.fail(
                        path,
                        format!("array length {} vs baseline {}", a.len(), b.len()),
                    );
                }
                for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                    self.walk(&format!("{path}[{i}]"), key, va, vb);
                }
            }
            _ => self.leaf(path, key, new, baseline),
        }
    }

    fn leaf(&mut self, path: &str, key: &str, new: &Json, baseline: &Json) {
        self.report.leaves_checked += 1;
        if HOST_KEYS.contains(&key) {
            return; // Already handled up front.
        }
        let numeric = (new.as_f64(), baseline.as_f64());
        if let (Some(a), Some(b)) = numeric {
            if is_timing_key(key) {
                self.timing_leaf(path, key, a, b);
            } else if a != b {
                self.mismatch(
                    path,
                    format!("{new} vs baseline {baseline} (identity field)"),
                );
            }
            return;
        }
        // Non-numeric leaf (string, bool, null) or type mismatch. Booleans
        // derived from timing (e.g. `attached_within_budget`) stay tolerant.
        if new != baseline {
            if is_timing_key(key) {
                self.mismatch(
                    path,
                    format!("{new} vs baseline {baseline} (timing-derived)"),
                );
            } else if std::mem::discriminant(new) != std::mem::discriminant(baseline)
                && !matches!((new, baseline), (Json::Int(_), Json::Float(_)))
                && !matches!((new, baseline), (Json::Float(_), Json::Int(_)))
            {
                self.fail(path, format!("type changed: {new} vs baseline {baseline}"));
            } else {
                self.mismatch(
                    path,
                    format!("{new} vs baseline {baseline} (identity field)"),
                );
            }
        }
    }

    fn timing_leaf(&mut self, path: &str, key: &str, new: f64, baseline: f64) {
        let (delta, unit, breached) = if key.ends_with("_pct") {
            // Overhead percentages legitimately hover around zero, where a
            // relative comparison explodes; gate on percentage points.
            let delta = new - baseline;
            (delta, "pp", delta.abs() > self.tolerance_pct)
        } else {
            let denom = baseline.abs().max(new.abs()).max(1e-9);
            let rel = (new - baseline) / denom * 100.0;
            (rel, "%", rel.abs() > self.tolerance_pct)
        };
        if !breached {
            return;
        }
        let message = format!(
            "{new:.6} vs baseline {baseline:.6} ({delta:+.1}{unit}, tolerance {}{unit})",
            self.tolerance_pct
        );
        if self.comparable {
            self.fail(path, message);
        } else {
            self.warn(path, message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("test document parses")
    }

    const BASE: &str = r#"{
        "smoke": false, "threads": 4, "host_cores": 4, "cells": 80,
        "raw_seconds": 8.7, "detached_overhead_pct": -0.5,
        "reports_identical": true, "attached_within_budget": true,
        "workloads": [
            {"name": "sweep", "items": 5982, "seq_seconds": 0.01, "speedup": 0.73}
        ]
    }"#;

    #[test]
    fn self_comparison_passes_clean() {
        let doc = parse(BASE);
        let report = compare(&doc, &doc, 10.0);
        assert!(report.passed());
        assert!(report.comparable);
        assert!(report.host_mismatches.is_empty());
        assert!(report.warnings.is_empty());
        assert!(report.leaves_checked >= 10);
    }

    #[test]
    fn injected_timing_regression_fails_the_gate() {
        let doc = parse(BASE);
        let slow = parse(&BASE.replace("\"raw_seconds\": 8.7", "\"raw_seconds\": 17.4"));
        let report = compare(&slow, &doc, 25.0);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.path.contains("raw_seconds")));
    }

    #[test]
    fn timing_drift_inside_tolerance_passes() {
        let doc = parse(BASE);
        let near = parse(&BASE.replace("\"raw_seconds\": 8.7", "\"raw_seconds\": 9.2"));
        assert!(compare(&near, &doc, 10.0).passed());
    }

    #[test]
    fn pct_fields_gate_on_percentage_points() {
        let doc = parse(BASE);
        // -0.5 -> +6: a 6.5pp swing. Relative comparison would see 1300%.
        let drift = parse(&BASE.replace(
            "\"detached_overhead_pct\": -0.5",
            "\"detached_overhead_pct\": 6.0",
        ));
        assert!(
            compare(&drift, &doc, 10.0).passed(),
            "6.5pp < 10pp tolerance"
        );
        assert!(
            !compare(&drift, &doc, 5.0).passed(),
            "6.5pp > 5pp tolerance"
        );
    }

    #[test]
    fn identity_fields_are_strict() {
        let doc = parse(BASE);
        let altered = parse(&BASE.replace("\"items\": 5982", "\"items\": 5983"));
        let report = compare(&altered, &doc, 100.0);
        assert!(!report.passed(), "identity drift fails at any tolerance");
    }

    #[test]
    fn host_mismatch_downgrades_values_but_enforces_structure() {
        let doc = parse(BASE);
        let smoke = parse(
            &BASE
                .replace("\"smoke\": false", "\"smoke\": true")
                .replace("\"cells\": 80", "\"cells\": 8")
                .replace("\"raw_seconds\": 8.7", "\"raw_seconds\": 0.3"),
        );
        let report = compare(&smoke, &doc, 25.0);
        assert!(
            report.passed(),
            "apples vs oranges never gates:\n{}",
            report.render()
        );
        assert!(!report.comparable);
        assert!(!report.host_mismatches.is_empty());
        assert!(!report.warnings.is_empty(), "deltas still reported");

        // ... but a missing key is a structural break even then.
        let broken = parse(
            &BASE
                .replace("\"smoke\": false", "\"smoke\": true")
                .replace("\"raw_seconds\": 8.7, ", ""),
        );
        assert!(!compare(&broken, &doc, 25.0).passed());
    }

    #[test]
    fn timing_derived_booleans_are_tolerant_only_when_incomparable() {
        let doc = parse(BASE);
        let flipped = parse(&BASE.replace(
            "\"attached_within_budget\": true",
            "\"attached_within_budget\": false",
        ));
        assert!(
            !compare(&flipped, &doc, 25.0).passed(),
            "comparable: gate trips"
        );
        let flipped_smoke = parse(
            &BASE.replace("\"smoke\": false", "\"smoke\": true").replace(
                "\"attached_within_budget\": true",
                "\"attached_within_budget\": false",
            ),
        );
        assert!(
            compare(&flipped_smoke, &doc, 25.0).passed(),
            "incomparable: warning"
        );
    }

    #[test]
    fn extra_keys_in_the_new_artifact_fail() {
        let doc = parse(BASE);
        let extra = parse(&BASE.replace("\"cells\": 80", "\"cells\": 80, \"new_field\": 1"));
        let report = compare(&extra, &doc, 10.0);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.path.contains("new_field")));
    }
}
