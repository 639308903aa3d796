//! The sequential counter bag managers fill in through `HeapOps`.
//!
//! [`StatSink`] predates the registry (it arrived with the observability
//! layer) and keeps its exact API and JSON shape; it is a thin adapter
//! over the same [`Histogram`] substrate, and [`StatSink::publish`] folds
//! a finished sink into the process-global registry so a run's manager
//! counters and its engine totals share one exposition path.

use std::collections::BTreeMap;

use pcb_json::{Json, ToJson};

use crate::hist::Histogram;

/// A named bag of counters and histograms filled in by the manager.
///
/// Keys are `&'static str` so the reporting hot path allocates nothing;
/// the convention is `"<manager-area>.<metric>"` (for example
/// `"freelist.probes"` or `"pages.evictions"`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatSink {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl StatSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_default() += delta;
    }

    /// Records one sample into the named histogram.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The named counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds the sink into the process-global registry (a no-op when
    /// the registry is disabled). Counters add, histograms merge per
    /// bucket, so publishing N sinks equals recording directly.
    pub fn publish(&self) {
        if !crate::enabled() {
            return;
        }
        for (&name, &v) in &self.counters {
            crate::add_counter(name, v);
        }
        for (&name, h) in &self.histograms {
            crate::merge_histogram(name, h);
        }
    }
}

impl ToJson for StatSink {
    fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(&name, &v)| (name, Json::from(v)));
        let histograms = self.histograms.iter().map(|(&name, h)| (name, h.to_json()));
        Json::object([
            ("counters", Json::object(counters)),
            ("histograms", Json::object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_accumulates_and_serializes() {
        let mut s = StatSink::new();
        assert!(s.is_empty());
        s.add("freelist.probes", 3);
        s.add("freelist.probes", 2);
        s.record("alloc.size", 8);
        assert_eq!(s.counter("freelist.probes"), 5);
        assert_eq!(s.counter("unknown"), 0);
        assert_eq!(s.histogram("alloc.size").unwrap().count(), 1);
        assert!(s.histogram("unknown").is_none());
        let json = s.to_json().to_string();
        assert!(json.contains("freelist.probes"));
        assert!(json.contains("\"counters\""));
        assert_eq!(s.counters().count(), 1);
    }
}
