//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, printed last on standard output.

use crate::probe::median;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (a ratio over nothing) read 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// Names and units of the end-to-end metrics, in report order.
/// `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("tenants_per_s", "1/s"),
    ("states_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every result check passed and nothing failed.
    pub correct: bool,
    /// Units attempted (tenants on the fleet, runs otherwise).
    pub attempted: u64,
    /// Units failed: run errors, quarantined tenants, check mismatches.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable result-check failures (printed to stderr).
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line. Values print in Rust's shortest round-trip form,
    /// so every measured digit survives.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-position medians of several runs' metric lists (all in the same
/// order, as every ledger and end-to-end list is).
pub fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|run| run[i].value).collect();
            Metric::new(m.name, median(&values), m.unit)
        })
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
