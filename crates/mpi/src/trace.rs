//! Per-rank activity tracing used to regenerate the paper's Figure 2
//! (time allocation across atmosphere / coupler / ocean / idle per
//! processor for one simulated day).

use std::time::Instant;

use crate::stats::CommStats;

/// What a rank was doing during a [`Segment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentKind {
    /// Useful work inside a named component region ("atmosphere",
    /// "coupler", "ocean", ...).
    Work(String),
    /// Blocked waiting for a message or inside a collective — the purple
    /// "idle" bars of the paper's Figure 2.
    Wait,
}

/// One contiguous activity interval on a rank, in seconds since the
/// universe epoch.
#[derive(Debug, Clone)]
pub struct Segment {
    pub kind: SegmentKind,
    pub start: f64,
    pub end: f64,
}

impl Segment {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The full activity record of one rank for one run.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    pub rank: usize,
    pub segments: Vec<Segment>,
    /// Per-tag communication counters accumulated over the run (always
    /// collected, even when segment tracing is off).
    pub stats: CommStats,
}

impl RankTrace {
    /// Total time recorded inside `Work` segments whose label equals
    /// `label`.
    pub fn work_time(&self, label: &str) -> f64 {
        self.segments
            .iter()
            .filter(|s| matches!(&s.kind, SegmentKind::Work(l) if l == label))
            .map(Segment::duration)
            .sum()
    }

    /// Total time recorded as waiting/idle.
    pub fn wait_time(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Wait)
            .map(Segment::duration)
            .sum()
    }

    /// Render this rank's timeline as a fixed-width ASCII bar over
    /// `[t0, t1]` using `width` character cells. Each work label is drawn
    /// with the first letter of its name; waits are drawn as `.` and
    /// unrecorded time as ` `.
    pub fn ascii_bar(&self, t0: f64, t1: f64, width: usize) -> String {
        let mut bar = vec![' '; width];
        let scale = width as f64 / (t1 - t0).max(1e-12);
        for s in &self.segments {
            let a = (((s.start - t0) * scale).floor().max(0.0)) as usize;
            let b = (((s.end - t0) * scale).ceil()) as usize;
            let ch = match &s.kind {
                SegmentKind::Work(l) => l.chars().next().unwrap_or('w').to_ascii_uppercase(),
                SegmentKind::Wait => '.',
            };
            for cell in bar.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = ch;
            }
        }
        bar.into_iter().collect()
    }
}

/// Mutable trace recorder owned by a [`crate::Comm`].
#[derive(Debug)]
pub(crate) struct Tracer {
    epoch: Instant,
    enabled: bool,
    rank: usize,
    segments: Vec<Segment>,
    /// Nesting depth of open work regions; waits inside a region are still
    /// recorded as waits (they interrupt the region).
    region_stack: Vec<(String, f64)>,
}

impl Tracer {
    pub fn new(rank: usize, epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled: false,
            rank,
            segments: Vec::new(),
            region_stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn open_region(&mut self, label: &str) {
        if self.enabled {
            let t = self.now();
            self.region_stack.push((label.to_string(), t));
        }
    }

    pub fn close_region(&mut self) {
        if self.enabled {
            if let Some((label, start)) = self.region_stack.pop() {
                let end = self.now();
                self.segments.push(Segment {
                    kind: SegmentKind::Work(label),
                    start,
                    end,
                });
            }
        }
    }

    /// Record a wait interval. Splits the innermost open region around the
    /// wait so work time excludes blocked time.
    pub fn record_wait(&mut self, start: f64, end: f64) {
        if self.enabled && end > start {
            // Close out the work accrued so far in the innermost region.
            if let Some((label, rstart)) = self.region_stack.last_mut() {
                if start > *rstart {
                    let seg = Segment {
                        kind: SegmentKind::Work(label.clone()),
                        start: *rstart,
                        end: start,
                    };
                    self.segments.push(seg);
                }
                *rstart = end;
            }
            self.segments.push(Segment {
                kind: SegmentKind::Wait,
                start,
                end,
            });
        }
    }

    pub fn take(&mut self) -> RankTrace {
        // Close any dangling regions so the trace is well formed.
        while !self.region_stack.is_empty() {
            self.close_region();
        }
        let mut segments = std::mem::take(&mut self.segments);
        segments.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        RankTrace {
            rank: self.rank,
            segments,
            stats: CommStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn seg(kind: SegmentKind, start: f64, end: f64) -> Segment {
        Segment { kind, start, end }
    }

    #[test]
    fn work_and_wait_accounting() {
        let t = RankTrace {
            rank: 0,
            segments: vec![
                seg(SegmentKind::Work("atm".into()), 0.0, 1.0),
                seg(SegmentKind::Wait, 1.0, 1.5),
                seg(SegmentKind::Work("ocean".into()), 1.5, 2.0),
                seg(SegmentKind::Work("atm".into()), 2.0, 3.0),
            ],
            ..Default::default()
        };
        assert!((t.work_time("atm") - 2.0).abs() < 1e-12);
        assert!((t.work_time("ocean") - 0.5).abs() < 1e-12);
        assert!((t.wait_time() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ascii_bar_renders_in_proportion() {
        let t = RankTrace {
            rank: 0,
            segments: vec![
                seg(SegmentKind::Work("atm".into()), 0.0, 5.0),
                seg(SegmentKind::Wait, 5.0, 10.0),
            ],
            ..Default::default()
        };
        let bar = t.ascii_bar(0.0, 10.0, 10);
        assert_eq!(bar.len(), 10);
        assert!(bar.starts_with("AAAA"));
        assert!(bar.ends_with("...."));
    }

    #[test]
    fn tracer_splits_region_around_wait() {
        let mut tr = Tracer::new(0, Instant::now());
        tr.set_enabled(true);
        tr.open_region("atm");
        let now = tr.now();
        tr.record_wait(now + 0.5, now + 1.0);
        tr.close_region();
        let trace = tr.take();
        // Expect: work [.., now+0.5], wait [now+0.5, now+1.0], work [now+1.0, ..]
        assert_eq!(trace.segments.len(), 3);
        assert!((trace.wait_time() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(3, Instant::now());
        tr.open_region("x");
        tr.record_wait(0.0, 1.0);
        tr.close_region();
        let trace = tr.take();
        assert!(trace.segments.is_empty());
        assert_eq!(trace.rank, 3);
    }
}
