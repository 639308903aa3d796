//! Chrome trace-event export: turns a [`Trace`] into the JSON object
//! format consumed by Perfetto (<https://ui.perfetto.dev>) and the legacy
//! `chrome://tracing` viewer.
//!
//! The export uses the documented subset that both viewers accept:
//!
//! * one `"M"` (metadata) event per process/track carrying its name;
//! * one `"X"` (complete) event per span with microsecond `ts`/`dur`.
//!
//! Everything lives under a top-level `traceEvents` array, with the
//! retention-cap drop counter under `otherData` for honesty.

use crate::spans::Trace;
use pcb_json::Json;

/// Microseconds (Chrome's unit) from nanoseconds, keeping sub-microsecond
/// precision as a fraction.
fn us(ns: u64) -> Json {
    Json::from(ns as f64 / 1_000.0)
}

impl Trace {
    /// Renders the trace in Chrome trace-event JSON. The result is a
    /// [`pcb_json::Json`] document; `to_string()` it into a file and load
    /// that file in Perfetto.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events = Vec::with_capacity(self.spans.len() + self.tracks.len() + 1);
        events.push(Json::object([
            ("ph", Json::from("M")),
            ("name", Json::from("process_name")),
            ("pid", Json::from(1u64)),
            ("args", Json::object([("name", Json::from("pcb"))])),
        ]));
        for track in &self.tracks {
            events.push(Json::object([
                ("ph", Json::from("M")),
                ("name", Json::from("thread_name")),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(track.id)),
                (
                    "args",
                    Json::object([("name", Json::from(track.name.as_str()))]),
                ),
            ]));
        }
        for span in &self.spans {
            events.push(Json::object([
                ("ph", Json::from("X")),
                ("name", Json::from(span.name)),
                ("cat", Json::from("pcb")),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(span.track)),
                ("ts", us(span.start_ns)),
                ("dur", us(span.dur_ns)),
            ]));
        }
        Json::object([
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::from("ms")),
            (
                "otherData",
                Json::object([("dropped_spans", Json::from(self.dropped))]),
            ),
        ])
    }
}

impl pcb_json::ToJson for Trace {
    /// The JSON form of a trace *is* its Chrome trace-event document.
    fn to_json(&self) -> Json {
        self.to_chrome_trace()
    }
}

#[cfg(test)]
mod tests {
    use crate::spans::{SpanRecord, Trace, TrackInfo};
    use pcb_json::Json;

    fn sample() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    name: "outer",
                    track: 0,
                    start_ns: 1_000,
                    dur_ns: 5_500,
                    child_ns: 2_000,
                    depth: 0,
                },
                SpanRecord {
                    name: "inner",
                    track: 0,
                    start_ns: 2_000,
                    dur_ns: 2_000,
                    child_ns: 0,
                    depth: 1,
                },
            ],
            tracks: vec![TrackInfo {
                id: 0,
                name: "main".into(),
            }],
            dropped: 0,
        }
    }

    #[test]
    fn chrome_document_round_trips_through_the_parser() {
        let doc = sample().to_chrome_trace().to_string();
        let parsed = Json::parse(&doc).expect("export is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // process_name meta + thread_name meta + 2 spans.
        assert_eq!(events.len(), 4);
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        for event in complete {
            for key in ["name", "ts", "dur", "pid", "tid"] {
                assert!(event.get(key).is_some(), "X event missing {key}");
            }
        }
        let dropped = parsed
            .get("otherData")
            .and_then(|d| d.get("dropped_spans"))
            .and_then(Json::as_u64);
        assert_eq!(dropped, Some(0));
    }

    #[test]
    fn timestamps_convert_to_microseconds() {
        let doc = sample().to_chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let outer = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("outer"))
            .unwrap();
        assert_eq!(outer.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(outer.get("dur").and_then(Json::as_f64), Some(5.5));
    }
}
