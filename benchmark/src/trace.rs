//! Span recorder for the traced run. Spans are recorded by the benchmark
//! around its calls into each layer's public functions; they live in memory
//! and are written out once, when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed call: which layer it entered, what it did there, when, caused
/// by which span, on behalf of which request.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Spans of one request (one CLI-like invocation, one wire-like
    /// operation) share this identifier.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// A disabled recorder runs the same closures and records nothing; the
    /// wall-time difference to an enabled one is the tracing overhead.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Start a new request; spans opened from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` gets the recorder back to open children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `layer.name`, in call order.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    /// Write every span as one JSON array.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Num(s.request as f64)),
                    ("layer", Json::str(s.layer)),
                    ("name", Json::str(s.name)),
                    ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                ])
            })
            .collect();
        std::fs::write(path, format!("{}\n", Json::Arr(spans)))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Self time of each span in ns: its duration minus the part of that
/// interval its direct children cover. Children of one parent do not
/// overlap (the replay is single-threaded), so their durations add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Self time in ms per `(root span name, layer)`. Under one root the
/// values add up to the root's duration: every instant of it belongs to
/// exactly one layer.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), f64> {
    let mut root: Vec<&'static str> = Vec::with_capacity(spans.len());
    let mut layers = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        // A parent is recorded before its children.
        root.push(span.parent.map_or(span.name, |p| root[p]));
        *layers
            .entry((root[root.len() - 1], span.layer))
            .or_insert(0.0) += own as f64 / 1e6;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            name: "x",
            parent,
            request: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100
        //   cli 10..90
        //     ast 10..30
        //     engine 30..80
        //       ast 40..50   (a grandchild of cli: not subtracted from cli)
        let spans = vec![
            span("bench", None, 0, 100),
            span("cli", Some(0), 10, 90),
            span("ast", Some(1), 10, 30),
            span("engine", Some(1), 30, 80),
            span("ast", Some(3), 40, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 20, 40, 10]);
        let close = |ms: f64, ns: f64| (ms - ns / 1e6).abs() < 1e-12;
        let layers = layer_self_ms(&spans);
        assert!(close(layers[&("x", "ast")], 30.0));
        assert!(close(layers[&("x", "engine")], 40.0));
        let total: f64 = layers.values().sum();
        assert!(close(total, 100.0), "self times partition the root");

        // A second root keeps its own account.
        let mut two = spans.clone();
        two.push(Span {
            name: "y",
            ..span("bench", None, 100, 130)
        });
        two.push(span("ast", Some(5), 110, 120));
        let layers = layer_self_ms(&two);
        assert!(close(layers[&("y", "bench")], 20.0));
        assert!(close(layers[&("y", "ast")], 10.0));
        assert!(close(layers[&("x", "ast")], 30.0));
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.next_request();
        let out = rec.span("cli", "eval", |rec| {
            rec.span("ast", "parse", |_| 1) + rec.span("engine", "fixpoint", |_| 2)
        });
        assert_eq!(out, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans
            .iter()
            .all(|s| s.request == 1 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(rec.durations("ast", "parse").len(), 1);

        let mut off = Recorder::new(false);
        assert_eq!(
            off.span("cli", "eval", |rec| rec.span("ast", "parse", |_| 7)),
            7
        );
        assert!(off.spans().is_empty());
    }
}
