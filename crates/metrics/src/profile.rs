//! The per-phase profile: one row per span name with its count / total
//! / mean / max duration and its self-time, rendered as a fixed-width
//! table.

use crate::hist::Histogram;

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// The span name.
    pub name: &'static str,
    /// The spans' durations in nanoseconds: count, total (`sum`), mean
    /// and max.
    pub dur: Histogram,
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
    /// Orders `rows` heaviest first (ties by name).
    pub(crate) fn new(mut rows: Vec<ProfileRow>) -> Profile {
        rows.sort_by(|a, b| b.dur.sum().cmp(&a.dur.sum()).then(a.name.cmp(b.name)));
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
                row.dur.count(),
                fmt_ns(row.dur.sum() as f64),
                fmt_ns(row.dur.mean()),
                fmt_ns(row.dur.max() as f64),
                fmt_ns(row.self_ns as f64),
            ));
        }
        out
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

    fn row(name: &'static str, durs: &[u64], self_ns: u64) -> ProfileRow {
        let mut dur = Histogram::new();
        for &d in durs {
            dur.record(d);
        }
        ProfileRow { name, dur, self_ns }
    }

    #[test]
    fn aggregation_computes_all_columns() {
        let profile = Profile::new(vec![row("free", &[50], 50), row("alloc", &[100, 300], 360)]);
        let alloc = &profile.rows[0];
        assert_eq!(alloc.name, "alloc");
        assert_eq!(alloc.dur.count(), 2);
        assert_eq!(alloc.dur.sum(), 400);
        assert_eq!(alloc.dur.mean(), 200.0);
        assert_eq!(alloc.dur.max(), 300);
        assert_eq!(profile.rows[1].name, "free");
    }

    #[test]
    fn table_lists_every_row() {
        let table = Profile::new(vec![row("engine.run", &[2_500_000], 0)]).render_table();
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
