//! Spans recorded in memory by the benchmark around its calls into the
//! program, written as Chrome `trace_event` JSON when the run ends
//! (open in `chrome://tracing` or Perfetto). Nothing inside the program
//! is instrumented.

use crate::json::{obj, Json};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// Index of the span that was open when this one began.
    parent: Option<usize>,
    /// One track per workload in a combined trace.
    track: usize,
    start: Duration,
    dur: Duration,
    args: Vec<(String, Json)>,
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    index: usize,
    began: Instant,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    track: usize,
    track_names: Vec<String>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            track: 0,
            track_names: Vec::new(),
        }
    }

    /// Starts a new track; later spans belong to it.
    pub fn track(&mut self, name: &str) {
        self.track = self.track_names.len();
        self.track_names.push(name.to_string());
    }

    pub fn begin(&mut self, name: &str) -> Open {
        let began = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            track: self.track,
            start: began - self.origin,
            dur: Duration::ZERO,
            args: Vec::new(),
        });
        self.open.push(index);
        Open { index, began }
    }

    /// Closes a span and returns how long it was open.
    pub fn end(&mut self, open: Open) -> Duration {
        self.end_with(open, [])
    }

    /// Closes a span, attaching counts taken at the same boundary.
    pub fn end_with<const N: usize>(&mut self, open: Open, args: [(&str, Json); N]) -> Duration {
        let dur = open.began.elapsed();
        let popped = self.open.pop();
        assert_eq!(popped, Some(open.index), "spans close innermost first");
        let span = &mut self.spans[open.index];
        span.dur = dur;
        span.args = args.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        dur
    }

    /// Adds a span that was timed by the caller (a callback that only
    /// learns of a call when it returns).
    pub fn record<const N: usize>(
        &mut self,
        name: &str,
        began: Instant,
        ended: Instant,
        args: [(&str, Json); N],
    ) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            track: self.track,
            start: began - self.origin,
            dur: ended - began,
            args: args.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Milliseconds of the current track's latest span called `name`; 0
    /// if there is none (a stage this workload's engine does not have).
    pub fn millis(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.track == self.track && s.name == name)
            .map_or(0.0, |s| s.dur.as_secs_f64() * 1e3)
    }

    /// Times `f` as a span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let value = f();
        self.end(open);
        value
    }

    /// Per span: its duration minus what its direct children cover.
    fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.dur;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, children)| span.dur.saturating_sub(children))
            .collect()
    }

    pub fn to_chrome_json(&self) -> Json {
        let micros = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
        let mut events: Vec<Json> = self
            .track_names
            .iter()
            .enumerate()
            .map(|(track, name)| {
                obj([
                    ("name", "thread_name".into()),
                    ("ph", "M".into()),
                    ("pid", 1u64.into()),
                    ("tid", track.into()),
                    ("args", obj([("name", name.as_str().into())])),
                ])
            })
            .collect();
        let self_times = self.self_times();
        events.extend(self.spans.iter().enumerate().map(|(index, span)| {
            let mut args = vec![
                ("id".to_string(), index.into()),
                (
                    "parent".to_string(),
                    span.parent.map_or(Json::Null, Json::from),
                ),
                ("self_us".to_string(), micros(self_times[index])),
            ];
            args.extend(span.args.iter().cloned());
            obj([
                ("name", span.name.as_str().into()),
                ("cat", "bench".into()),
                ("ph", "X".into()),
                ("ts", micros(span.start)),
                ("dur", micros(span.dur)),
                ("pid", 1u64.into()),
                ("tid", span.track.into()),
                ("args", Json::Obj(args)),
            ])
        }));
        obj([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_complete_events() {
        let mut t = Tracer::new();
        t.track("w");
        let outer = t.begin("outer");
        assert_eq!(t.span("inner", || 7), 7);
        let outer = t.end_with(outer, [("count", 3u64.into())]);
        let inner = t.spans[1].dur;
        assert!(outer >= inner);
        assert_eq!(t.self_times(), [outer - inner, inner]);
        assert_eq!(t.millis("inner"), inner.as_secs_f64() * 1e3);
        assert_eq!(t.millis("absent"), 0.0);
        t.track("other");
        assert_eq!(t.millis("inner"), 0.0, "spans are looked up per track");
        let json = t.to_chrome_json();
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        let inner_event = &events[3];
        assert_eq!(inner_event.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            inner_event
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("count"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(Json::parse(&json.to_pretty()).unwrap(), json);
    }
}
