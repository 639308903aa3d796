//! Aggregated profile reports: collapse a [`Trace`]'s spans by name into
//! per-phase count / total / mean / max / self-time rows, render them as a
//! fixed-width table, and serialize them with `pcb-json`.

use std::collections::BTreeMap;

use crate::spans::Trace;
use pcb_json::Json;

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// The span name.
    pub name: &'static str,
    /// How many spans carried this name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Mean duration, nanoseconds.
    pub mean_ns: f64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Total duration minus time inside child spans: where the phase
    /// itself (not its callees) spent the clock.
    pub self_ns: u64,
}

/// A whole profile: one row per span name, sorted by descending total.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// The rows, heaviest first.
    pub rows: Vec<ProfileRow>,
}

impl Profile {
    /// Aggregates a trace into a profile.
    pub fn from_trace(trace: &Trace) -> Profile {
        let mut by_name: BTreeMap<&'static str, ProfileRow> = BTreeMap::new();
        for span in &trace.spans {
            let row = by_name.entry(span.name).or_insert(ProfileRow {
                name: span.name,
                count: 0,
                total_ns: 0,
                mean_ns: 0.0,
                max_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += span.dur_ns;
            row.max_ns = row.max_ns.max(span.dur_ns);
            row.self_ns += span.self_ns();
        }
        let mut rows: Vec<ProfileRow> = by_name.into_values().collect();
        for row in &mut rows {
            row.mean_ns = row.total_ns as f64 / row.count as f64;
        }
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        Profile { rows }
    }

    /// Whether there is anything to report.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the profile as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>9} {:>11} {:>11} {:>11} {:>11}\n",
            "span", "count", "total", "mean", "max", "self"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<28} {:>9} {:>11} {:>11} {:>11} {:>11}\n",
                row.name,
                row.count,
                fmt_ns(row.total_ns as f64),
                fmt_ns(row.mean_ns),
                fmt_ns(row.max_ns as f64),
                fmt_ns(row.self_ns as f64),
            ));
        }
        out
    }
}

impl pcb_json::ToJson for Profile {
    fn to_json(&self) -> Json {
        Json::Array(
            self.rows
                .iter()
                .map(|row| {
                    Json::object([
                        ("name", Json::from(row.name)),
                        ("count", Json::from(row.count)),
                        ("total_ns", Json::from(row.total_ns)),
                        ("mean_ns", Json::from(row.mean_ns)),
                        ("max_ns", Json::from(row.max_ns)),
                        ("self_ns", Json::from(row.self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Human-scale duration: picks ns/us/ms/s so the mantissa stays short.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{SpanRecord, TrackInfo};

    fn span(name: &'static str, start: u64, dur: u64, child: u64) -> SpanRecord {
        SpanRecord {
            name,
            track: 0,
            start_ns: start,
            dur_ns: dur,
            child_ns: child,
            depth: 0,
        }
    }

    #[test]
    fn aggregation_computes_all_columns() {
        let trace = Trace {
            spans: vec![
                span("alloc", 0, 100, 40),
                span("alloc", 200, 300, 0),
                span("free", 600, 50, 0),
            ],
            tracks: vec![TrackInfo {
                id: 0,
                name: "main".into(),
            }],
            dropped: 0,
        };
        let profile = Profile::from_trace(&trace);
        assert_eq!(profile.rows.len(), 2);
        let alloc = &profile.rows[0]; // heaviest first
        assert_eq!(alloc.name, "alloc");
        assert_eq!(alloc.count, 2);
        assert_eq!(alloc.total_ns, 400);
        assert_eq!(alloc.mean_ns, 200.0);
        assert_eq!(alloc.max_ns, 300);
        assert_eq!(alloc.self_ns, 360, "child time subtracts from self");
        assert_eq!(profile.rows[1].name, "free");
    }

    #[test]
    fn table_lists_every_row() {
        let trace = Trace {
            spans: vec![span("engine.run", 0, 2_500_000, 0)],
            tracks: Vec::new(),
            dropped: 0,
        };
        let table = Profile::from_trace(&trace).render_table();
        assert!(table.contains("engine.run"));
        assert!(table.contains("2.5 ms"));
        assert!(table.starts_with("span"));
    }

    #[test]
    fn durations_format_across_scales() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(12_340.0), "12.3 us");
        assert_eq!(fmt_ns(12_340_000.0), "12.3 ms");
        assert_eq!(fmt_ns(12_340_000_000.0), "12.34 s");
    }
}
