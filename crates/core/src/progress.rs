//! Live progress heartbeat: a periodic stderr line plus an optional
//! JSONL stream, for watching long `fleet`/`simulate`/`worst-case` runs.
//!
//! The heartbeat is strictly a side channel. Reports are compared
//! byte-for-byte across thread counts and heartbeat on/off,
//! so everything wall-clock-flavoured (rates, ETAs, elapsed seconds)
//! lives here — written to stderr and to the `--progress-out` JSONL
//! stream, never to stdout and never into a report.
//!
//! Default policy (the `pcb fleet` "silent for 26 seconds" fix): with no
//! explicit flag the heartbeat turns on only when stderr is a terminal —
//! a human is watching — and stays off when stderr is piped, so captured
//! output and CI logs are unchanged.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, IsTerminal, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pcb_json::Json;

/// When the heartbeat emits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ProgressMode {
    /// On when stderr is a terminal, off otherwise (the default).
    #[default]
    Auto,
    /// Explicitly off.
    Off,
    /// Explicitly on, at the given cadence in seconds (0 emits on every
    /// tick).
    Every(f64),
}

/// Resolved progress options for one command.
#[derive(Debug, Clone, Default)]
pub struct ProgressOptions {
    /// When to emit.
    pub mode: ProgressMode,
    /// Optional JSONL stream path (one object per emitted pulse).
    pub stream: Option<PathBuf>,
}

impl ProgressOptions {
    /// The effective cadence: `None` when the heartbeat is off. `Auto`
    /// resolves against stderr's terminal-ness (and turns on when a
    /// stream was explicitly requested).
    pub fn cadence(&self) -> Option<Duration> {
        const DEFAULT_EVERY: Duration = Duration::from_secs(2);
        match self.mode {
            ProgressMode::Off => None,
            ProgressMode::Every(secs) => Some(Duration::from_secs_f64(secs.max(0.0))),
            ProgressMode::Auto => {
                if std::io::stderr().is_terminal() || self.stream.is_some() {
                    Some(DEFAULT_EVERY)
                } else {
                    None
                }
            }
        }
    }
}

/// A throttled progress reporter. Create one per command, call
/// [`tick`](Heartbeat::tick) at natural work boundaries (a fleet chunk, a
/// BFS level, a simulation round); it emits at most once per cadence.
#[derive(Debug)]
pub struct Heartbeat {
    label: &'static str,
    /// `None` when the heartbeat is off: every call returns immediately.
    every: Option<Duration>,
    start: Instant,
    last_emit: Option<Instant>,
    stream: Option<BufWriter<File>>,
    /// First stream write error, surfaced by [`finish`](Heartbeat::finish).
    stream_error: Option<std::io::Error>,
}

impl Heartbeat {
    /// A heartbeat that never emits (for code paths that thread one
    /// unconditionally).
    pub fn disabled(label: &'static str) -> Self {
        Heartbeat {
            label,
            every: None,
            start: Instant::now(),
            last_emit: None,
            stream: None,
            stream_error: None,
        }
    }

    /// A heartbeat following `opts`.
    ///
    /// # Errors
    ///
    /// An I/O error when the JSONL stream file cannot be created.
    pub fn new(label: &'static str, opts: &ProgressOptions) -> std::io::Result<Self> {
        let every = opts.cadence();
        let stream = match (&opts.stream, every) {
            (Some(path), Some(_)) => Some(BufWriter::new(File::create(path)?)),
            _ => None,
        };
        Ok(Heartbeat {
            label,
            every,
            start: Instant::now(),
            last_emit: None,
            stream,
            stream_error: None,
        })
    }

    /// Whether the heartbeat will ever emit.
    pub fn active(&self) -> bool {
        self.every.is_some()
    }

    /// Reports progress: `done` out of `total` units (pass `total = 0`
    /// when the total is unknown — percent and ETA are then omitted),
    /// plus caller-supplied numeric fields rendered on the stderr line
    /// and embedded in the JSONL object. Throttled to the cadence.
    pub fn tick(&mut self, done: u64, total: u64, fields: &[(&'static str, Json)]) {
        let Some(every) = self.every else { return };
        let now = Instant::now();
        if let Some(last) = self.last_emit {
            if now.duration_since(last) < every {
                return;
            }
        }
        self.last_emit = Some(now);
        let elapsed = now.duration_since(self.start).as_secs_f64();
        let per_sec = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };

        let mut line = format!("[pcb {}] {done}", self.label);
        if total > 0 {
            let pct = 100.0 * done as f64 / total as f64;
            let _ = write!(line, "/{total} ({pct:.1}%)");
        }
        let _ = write!(line, " | {per_sec:.0}/s");
        if total > done && per_sec > 0.0 {
            let eta = (total - done) as f64 / per_sec;
            let _ = write!(line, " | ETA {eta:.0}s");
        }
        for (name, value) in fields {
            let _ = write!(line, " | {name}={value}");
        }
        eprintln!("{line}");

        if let Some(out) = &mut self.stream {
            let mut obj = vec![
                ("label", Json::from(self.label)),
                ("elapsed_secs", Json::from(elapsed)),
                ("done", Json::from(done)),
                ("total", Json::from(total)),
                ("per_sec", Json::from(per_sec)),
            ];
            obj.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
            let json = Json::object(obj);
            if let Err(e) = writeln!(out, "{json}") {
                self.stream_error.get_or_insert(e);
            }
        }
    }

    /// Flushes the stream and surfaces the first deferred write error.
    ///
    /// # Errors
    ///
    /// The first stream I/O error, if any occurred.
    pub fn finish(mut self) -> std::io::Result<()> {
        if let Some(e) = self.stream_error.take() {
            return Err(e);
        }
        if let Some(mut out) = self.stream.take() {
            out.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_heartbeat_never_emits_or_errors() {
        let mut hb = Heartbeat::disabled("test");
        assert!(!hb.active());
        hb.tick(1, 2, &[("x", Json::from(1u64))]);
        assert!(hb.finish().is_ok());
    }

    #[test]
    fn off_mode_has_no_cadence_and_every_zero_always_fires() {
        let off = ProgressOptions {
            mode: ProgressMode::Off,
            stream: None,
        };
        assert!(off.cadence().is_none());
        let eager = ProgressOptions {
            mode: ProgressMode::Every(0.0),
            stream: None,
        };
        assert_eq!(eager.cadence(), Some(Duration::ZERO));
    }

    #[test]
    fn stream_receives_one_json_object_per_pulse() {
        let dir = std::env::temp_dir().join("pcb-progress-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stream-{}.jsonl", std::process::id()));
        let opts = ProgressOptions {
            mode: ProgressMode::Every(0.0),
            stream: Some(path.clone()),
        };
        let mut hb = Heartbeat::new("unit", &opts).unwrap();
        assert!(hb.active());
        hb.tick(10, 100, &[("quarantined", Json::from(3u64))]);
        hb.tick(20, 100, &[]);
        hb.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("done").and_then(Json::as_u64), Some(10));
        assert_eq!(first.get("total").and_then(Json::as_u64), Some(100));
        assert_eq!(first.get("quarantined").and_then(Json::as_u64), Some(3));
        assert_eq!(
            first.get("label").and_then(Json::as_str),
            Some("unit"),
            "label field carries the command name"
        );
        std::fs::remove_file(&path).ok();
    }
}
