//! A folded, serializable view of a set of metrics.
//!
//! Snapshots are plain data: string-keyed maps of `u64` counters, `u64`
//! gauges, and [`Histogram`]s. They merge with exact integer operations
//! (sum / max / per-bucket sum), so folding per-shard snapshots in shard
//! order yields bytes that do not depend on the thread count — the same
//! determinism contract the fleet accumulator already keeps.

use std::collections::BTreeMap;

use pcb_json::{Json, ToJson};

use crate::hist::Histogram;

/// A folded set of metrics: counters, gauges, and histograms, each in
/// name order (`BTreeMap`), all values exact integers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot (`const`, so the process-global
    /// registry can hold one in a `static`).
    pub const fn new() -> Self {
        MetricsSnapshot {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Adds `delta` to the named counter (creating it at 0).
    pub fn add_counter(&mut self, name: impl AsRef<str>, delta: u64) {
        *slot(&mut self.counters, name.as_ref()) += delta;
    }

    /// Ratchets the named gauge up to `value` (creating it at 0).
    pub fn record_gauge_max(&mut self, name: impl AsRef<str>, value: u64) {
        let slot = slot(&mut self.gauges, name.as_ref());
        *slot = (*slot).max(value);
    }

    /// Records one sample into the named histogram.
    pub fn observe(&mut self, name: impl AsRef<str>, value: u64) {
        slot(&mut self.histograms, name.as_ref()).record(value);
    }

    /// Folds a whole histogram into the named histogram (creating the
    /// entry even when `h` is empty, so registered-but-unsampled metrics
    /// stay visible in expositions).
    pub fn merge_histogram(&mut self, name: impl AsRef<str>, h: &Histogram) {
        slot(&mut self.histograms, name.as_ref()).merge(h);
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges max, histograms
    /// merge per bucket. Commutative and associative — the order shards
    /// are folded in cannot change the result.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (name, &v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_default();
            *slot = (*slot).max(v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Rebuilds a snapshot from its `ToJson` shape.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let mut snap = MetricsSnapshot::new();
        let counters = json
            .get("counters")
            .ok_or_else(|| "snapshot missing 'counters'".to_string())?;
        let Json::Object(map) = counters else {
            return Err("'counters' is not an object".into());
        };
        for (name, v) in map {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("counter '{name}' is not a u64"))?;
            snap.counters.insert(name.clone(), v);
        }
        let gauges = json
            .get("gauges")
            .ok_or_else(|| "snapshot missing 'gauges'".to_string())?;
        let Json::Object(map) = gauges else {
            return Err("'gauges' is not an object".into());
        };
        for (name, v) in map {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("gauge '{name}' is not a u64"))?;
            snap.gauges.insert(name.clone(), v);
        }
        let histograms = json
            .get("histograms")
            .ok_or_else(|| "snapshot missing 'histograms'".to_string())?;
        let Json::Object(map) = histograms else {
            return Err("'histograms' is not an object".into());
        };
        for (name, h) in map {
            let hist = Histogram::from_json(h).map_err(|e| format!("histogram '{name}': {e}"))?;
            snap.histograms.insert(name.clone(), hist);
        }
        Ok(snap)
    }
}

/// The entry for `name`, created at its default on first use. The key
/// `String` is allocated only then: every later call is a lookup by
/// `&str`.
fn slot<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        Json::object([
            (
                "counters",
                Json::object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.as_str(), Json::from(v))),
                ),
            ),
            (
                "gauges",
                Json::object(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.as_str(), Json::from(v))),
                ),
            ),
            (
                "histograms",
                Json::object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.as_str(), h.to_json())),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.add_counter("engine.objects_placed", 12);
        s.add_counter("engine.words_moved", 40);
        s.record_gauge_max("fleet.heap_size_words", 96);
        s.observe("fleet.waste_milli", 0);
        s.observe("fleet.waste_milli", 1500);
        s.observe("fleet.waste_milli", 1500);
        s
    }

    #[test]
    fn merge_is_sum_max_and_bucket_sum() {
        let mut a = sample();
        let mut b = MetricsSnapshot::new();
        b.add_counter("engine.objects_placed", 3);
        b.record_gauge_max("fleet.heap_size_words", 64);
        b.record_gauge_max("fleet.peak", 7);
        b.observe("fleet.waste_milli", 2);
        a.merge(&b);
        assert_eq!(a.counter("engine.objects_placed"), 15);
        assert_eq!(a.gauge("fleet.heap_size_words"), 96);
        assert_eq!(a.gauge("fleet.peak"), 7);
        assert_eq!(a.histogram("fleet.waste_milli").unwrap().count(), 4);
        let mut c = MetricsSnapshot::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = sample();
        let json = s.to_json().to_string();
        let back = MetricsSnapshot::from_json(&pcb_json::Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json().to_string(), json);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = MetricsSnapshot::new();
        assert!(s.is_empty());
        let back =
            MetricsSnapshot::from_json(&pcb_json::Json::parse(&s.to_json().to_string()).unwrap())
                .unwrap();
        assert!(back.is_empty());
    }
}
