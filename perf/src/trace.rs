//! Benchmark-owned spans: kept in memory while the run measures,
//! written to `perf/out/trace-<workload>.json` when it ends.
//!
//! A span has a name, start, end, the span that caused it and a group
//! id shared by every span of one run / coupling interval / server
//! operation. A layer's self time is its span minus the part of that
//! interval its children cover.

use std::sync::Mutex;
use std::time::Instant;

use foam_telemetry::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Index of the causing span in the trace, if any.
    pub parent: Option<usize>,
    /// Shared by the spans of one run, interval or server operation.
    pub group: u64,
    /// Seconds since the trace epoch.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span sink shared by the benchmark's threads. A disabled trace (the
/// untraced runs) records nothing and costs one branch per call.
pub struct Trace {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Seconds since the trace epoch.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Record a finished span; returns its index (usable as a parent).
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans
            .lock()
            .expect("a benchmark thread panicked mid-record");
        spans.push(Span {
            name: name.to_string(),
            parent,
            group,
            start: self.at(start),
            end: self.at(end),
        });
        Some(spans.len() - 1)
    }

    /// Open a span now and close it later with [`Trace::close`], so
    /// children recorded in between can name it as their parent.
    pub fn open(&self, name: &str, parent: Option<usize>, group: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, group, now, now)
    }

    pub fn close(&self, id: Option<usize>) {
        if let (Some(id), Some(spans)) = (id, self.spans.as_ref()) {
            let end = self.at(Instant::now());
            spans
                .lock()
                .expect("a benchmark thread panicked mid-record")[id]
                .end = end;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| {
                s.lock()
                    .expect("a benchmark thread panicked mid-record")
                    .clone()
            })
            .unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span itself — so children that
/// overlap each other (two threads) or stick out are not double-counted.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (a, b) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut edge = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                if b > edge {
                    covered += b - a.max(edge);
                    edge = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Total self time per span name under `root` (the root included),
/// first-appearance order.
pub fn self_time_by_name(spans: &[Span], root: usize) -> Vec<(String, f64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(String, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut up = Some(i);
        while let Some(k) = up {
            if k == root {
                break;
            }
            up = spans[k].parent;
        }
        if up.is_none() {
            continue;
        }
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += selfs[i],
            None => out.push((s.name.clone(), selfs[i])),
        }
    }
    out
}

pub fn to_json(spans: &[Span]) -> Value {
    let selfs = self_times(spans);
    Value::Array(
        spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_s))| {
                Value::object([
                    ("id".to_string(), Value::from(id)),
                    ("name".to_string(), Value::from(s.name.as_str())),
                    (
                        "parent".to_string(),
                        s.parent.map(Value::from).unwrap_or(Value::Null),
                    ),
                    ("group".to_string(), Value::from(s.group)),
                    ("start_s".to_string(), Value::from(s.start)),
                    ("end_s".to_string(), Value::from(s.end)),
                    ("self_s".to_string(), Value::from(self_s)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            group: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // day [0,10] > step [1,7] > kernel [2,4]; day > ocean [7,9].
        let spans = vec![
            span("day", None, 0.0, 10.0),
            span("step", Some(0), 1.0, 7.0),
            span("kernel", Some(1), 2.0, 4.0),
            span("ocean", Some(0), 7.0, 9.0),
        ];
        assert_eq!(self_times(&spans), vec![2.0, 4.0, 2.0, 2.0]);
        // Self times under the root add up to the root's duration.
        let by_name = self_time_by_name(&spans, 0);
        assert_eq!(by_name.iter().map(|(_, s)| s).sum::<f64>(), 10.0);
        assert_eq!(by_name[0], ("day".to_string(), 2.0));
    }

    #[test]
    fn overlapping_and_protruding_children_are_not_double_counted() {
        // Two children overlap on [3,5]; a third sticks out past the end.
        let spans = vec![
            span("op", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 5.0),
            span("b", Some(0), 3.0, 6.0),
            span("c", Some(0), 9.0, 12.0),
            span("inside-b", Some(2), 3.0, 4.0),
        ];
        let selfs = self_times(&spans);
        // Covered: [1,6] and [9,10] = 6, so 4 left.
        assert_eq!(selfs[0], 4.0);
        assert_eq!(selfs[2], 2.0);
        // A child wholly containing another adds nothing twice.
        let nested = vec![
            span("op", None, 0.0, 4.0),
            span("wide", Some(0), 0.0, 4.0),
            span("narrow", Some(0), 1.0, 2.0),
        ];
        assert_eq!(self_times(&nested)[0], 0.0);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let t = Trace::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", None, 0, now, now), None);
        assert!(t.spans().is_empty());
        let t = Trace::new(true);
        let id = t.open("run", None, 7);
        let now = Instant::now();
        t.record("child", id, 7, now, Instant::now());
        t.close(id);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
