//! The traced run's span recorder. Spans are taken by the benchmark around
//! calls into each layer's public functions (or copied from the phase
//! timers a `RunReport` already carries); the program itself is not
//! instrumented. Spans stay in memory and are written once, at the end of
//! the run, in Chrome trace-event format (opens in Perfetto or
//! `chrome://tracing`).

use aig_mediator::{Json, PhaseSample};
use std::time::Instant;

/// One timed interval of one request.
struct Span {
    /// Request the span belongs to (spans of one request share it).
    req: usize,
    layer: &'static str,
    name: String,
    /// Offset from the recorder's epoch, seconds.
    start: f64,
    secs: f64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        req: usize,
        layer: &'static str,
        name: &str,
        parent: Option<usize>,
    ) -> usize {
        let start = self.now();
        self.record(req, layer, name, start, 0.0, parent)
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.secs = self.epoch.elapsed().as_secs_f64() - span.start;
        span.secs
    }

    /// Times `f` as a span under `parent`; returns its result and seconds.
    pub fn time<R>(
        &mut self,
        req: usize,
        layer: &'static str,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(req, layer, name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Adds one child span per phase sample, positioned by the sample's
    /// offset from `phases_start` (the recorder-relative instant the
    /// phase stopwatch was started at).
    pub fn add_phases(
        &mut self,
        req: usize,
        parent: usize,
        phases_start: f64,
        samples: &[PhaseSample],
        layer_of: impl Fn(&str) -> &'static str,
    ) {
        for sample in samples {
            self.record(
                req,
                layer_of(&sample.name),
                &sample.name,
                phases_start + sample.first_start_secs,
                sample.secs,
                Some(parent),
            );
        }
    }

    /// Records an already-measured span; returns its index.
    pub fn record(
        &mut self,
        req: usize,
        layer: &'static str,
        name: &str,
        start: f64,
        secs: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            req,
            layer,
            name: name.to_string(),
            start,
            secs,
            parent,
        });
        self.spans.len() - 1
    }

    /// The recorder-relative offset of `instant`, in seconds.
    pub fn offset(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// The recorder-relative instant of now, in seconds.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// All spans as a Chrome trace-event document.
    pub fn to_chrome_json(&self, workload: &str, seed: u64) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("name", Json::str(format!("{}.{}", s.layer, s.name))),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::num(s.start * 1e6)),
                    ("dur", Json::num(s.secs * 1e6)),
                    ("pid", Json::num(1.0)),
                    ("tid", Json::num(1.0)),
                    (
                        "args",
                        Json::obj(vec![
                            ("span", Json::num(id as f64)),
                            ("request", Json::num(s.req as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj(vec![
                    ("workload", Json::str(workload)),
                    ("seed", Json::num(seed as f64)),
                ]),
            ),
        ])
    }
}
