//! The per-rank registry: hierarchical phase timers and monotonic
//! counters.
//!
//! One [`TelemetryRegistry`] lives on each rank (thread) of a run. Phase
//! timers form a tree: opening a scope while another is open records the
//! child under the path `parent/child`, so a report can both show the
//! tree and assert that children never account for more time than their
//! parent. Counters are flat, named, and monotonic — merge just adds.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time of one phase path on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Times the phase was entered.
    pub calls: u64,
    /// Total wall-clock seconds inside the phase (children included —
    /// this is *inclusive* time, like the paper's Figure 2 bars).
    pub seconds: f64,
}

impl PhaseStat {
    /// Fold another accumulation of the same phase into this one.
    pub fn merge(&mut self, other: &PhaseStat) {
        self.calls += other.calls;
        self.seconds += other.seconds;
    }
}

/// Per-rank telemetry state: phase timers keyed by `a/b/c` path,
/// monotonic counters keyed by name, and the stack of currently open
/// scopes.
///
/// ```
/// use foam_telemetry::TelemetryRegistry;
///
/// let mut reg = TelemetryRegistry::new(0);
/// let d = reg.open("ocean");
/// reg.open("barotropic");
/// reg.add("ocean.subcycles", 30);
/// reg.close_to(d); // closes barotropic, then ocean
/// assert!(reg.phases().contains_key("ocean/barotropic"));
/// assert_eq!(reg.counters()["ocean.subcycles"], 30);
/// ```
#[derive(Debug, Clone)]
pub struct TelemetryRegistry {
    rank: usize,
    epoch: Instant,
    /// Wall-clock span of the rank, stamped by [`TelemetryRegistry::finish`].
    wall_seconds: f64,
    phases: BTreeMap<String, PhaseStat>,
    counters: BTreeMap<String, u64>,
    /// Open scopes: (name, start, calls to record on close — 0 for a
    /// resumed scope). The full path of the innermost scope is the names
    /// joined with `/`.
    stack: Vec<(&'static str, Instant, u64)>,
}

impl TelemetryRegistry {
    pub fn new(rank: usize) -> Self {
        TelemetryRegistry {
            rank,
            epoch: Instant::now(),
            wall_seconds: 0.0,
            phases: BTreeMap::new(),
            counters: BTreeMap::new(),
            stack: Vec::new(),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Wall-clock span covered by this registry (0 until
    /// [`TelemetryRegistry::finish`] stamps it).
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }

    /// Phase accumulations keyed by `/`-joined path.
    pub fn phases(&self) -> &BTreeMap<String, PhaseStat> {
        &self.phases
    }

    /// Monotonic counters keyed by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Open a phase scope nested inside whatever is currently open.
    /// Returns the stack depth *before* the open — pass it to
    /// [`TelemetryRegistry::close_to`] to close this scope (and any
    /// children still open, so a scope abandoned early cannot corrupt
    /// its siblings).
    pub fn open(&mut self, name: &'static str) -> usize {
        self.push(name, 1)
    }

    /// Like [`TelemetryRegistry::open`], but the scope adds only its
    /// time to the phase, not a call: for work that completes calls
    /// already counted (one global combine finishing a batch of
    /// transforms), so `calls` keeps meaning "units of work".
    pub fn resume(&mut self, name: &'static str) -> usize {
        self.push(name, 0)
    }

    fn push(&mut self, name: &'static str, calls: u64) -> usize {
        let depth = self.stack.len();
        self.stack.push((name, Instant::now(), calls));
        depth
    }

    /// Close scopes until the stack is `depth` deep again, recording
    /// each closed scope under its full path. Out-of-order guard drops
    /// therefore close the whole abandoned subtree; a stale depth (≥
    /// current stack) is a no-op.
    pub fn close_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            let (_, start, calls) = *self.stack.last().expect("stack is non-empty");
            let path = self
                .stack
                .iter()
                .map(|(n, _, _)| *n)
                .collect::<Vec<_>>()
                .join("/");
            let seconds = start.elapsed().as_secs_f64();
            self.stack.pop();
            let stat = self.phases.entry(path).or_default();
            stat.calls += calls;
            stat.seconds += seconds;
        }
    }

    /// Add `n` to the named monotonic counter.
    pub fn add(&mut self, counter: &str, n: u64) {
        *self.counters.entry(counter.to_string()).or_insert(0) += n;
    }

    /// Record a phase observation directly (tests and offline tooling;
    /// the live path goes through [`TelemetryRegistry::open`] /
    /// [`TelemetryRegistry::close_to`]).
    pub fn record_phase(&mut self, path: &str, seconds: f64) {
        let stat = self.phases.entry(path.to_string()).or_default();
        stat.calls += 1;
        stat.seconds += seconds;
    }

    /// Close any dangling scopes and stamp the rank's wall-clock span.
    /// Called when the rank finishes; harvesting does it for you.
    pub fn finish(&mut self) {
        self.close_to(0);
        self.wall_seconds = self.epoch.elapsed().as_secs_f64();
    }

    /// Seconds spent in top-level phases (paths with no `/`) — the
    /// rank's "busy" time, the quantity whose spread across ranks is the
    /// load imbalance.
    pub fn busy_seconds(&self) -> f64 {
        // Fold from +0.0: an empty `Sum<f64>` is -0.0, which would leak
        // a "-0" into reports from a rank that recorded no phases.
        self.phases
            .iter()
            .filter(|(path, _)| !path.contains('/'))
            .fold(0.0, |acc, (_, s)| acc + s.seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_paths() {
        let mut r = TelemetryRegistry::new(3);
        let d0 = r.open("atmosphere");
        let d1 = r.open("dynamics");
        let d2 = r.open("spectral");
        r.close_to(d2);
        r.close_to(d1);
        r.close_to(d0);
        let paths: Vec<&String> = r.phases().keys().collect();
        assert_eq!(
            paths,
            vec![
                "atmosphere",
                "atmosphere/dynamics",
                "atmosphere/dynamics/spectral"
            ]
        );
        // Inclusive timing: the parent covers its children.
        assert!(r.phases()["atmosphere"].seconds >= r.phases()["atmosphere/dynamics"].seconds);
        assert!(
            r.phases()["atmosphere/dynamics"].seconds
                >= r.phases()["atmosphere/dynamics/spectral"].seconds
        );
        assert_eq!(r.rank(), 3);
    }

    #[test]
    fn repeated_scopes_accumulate_calls() {
        let mut r = TelemetryRegistry::new(0);
        for _ in 0..5 {
            let d = r.open("physics");
            r.close_to(d);
        }
        assert_eq!(r.phases()["physics"].calls, 5);
    }

    #[test]
    fn resumed_scope_adds_time_but_no_call() {
        let mut r = TelemetryRegistry::new(0);
        let d = r.open("spectral");
        r.close_to(d);
        let before = r.phases()["spectral"].seconds;
        let d = r.resume("spectral");
        r.open("reduce");
        r.close_to(d);
        assert_eq!(r.phases()["spectral"].calls, 1);
        assert!(r.phases()["spectral"].seconds >= before);
        // The child of a resumed scope is an ordinary, counted scope.
        assert_eq!(r.phases()["spectral/reduce"].calls, 1);
    }

    #[test]
    fn overlapping_close_shuts_the_subtree() {
        // Closing a parent with children still open must close the
        // children too (out-of-order guard drops).
        let mut r = TelemetryRegistry::new(0);
        let d_outer = r.open("outer");
        r.open("inner");
        r.close_to(d_outer); // never closed "inner" explicitly
        assert!(r.phases().contains_key("outer"));
        assert!(r.phases().contains_key("outer/inner"));
        assert_eq!(r.phases()["outer/inner"].calls, 1);
        // A stale depth is a no-op, not a panic.
        r.close_to(7);
        assert_eq!(r.phases().len(), 2);
    }

    #[test]
    fn finish_closes_dangling_scopes_and_stamps_wall() {
        let mut r = TelemetryRegistry::new(1);
        r.open("left-open");
        r.finish();
        assert!(r.phases().contains_key("left-open"));
        assert!(r.wall_seconds() > 0.0);
    }

    #[test]
    fn busy_counts_only_top_level_phases() {
        let mut r = TelemetryRegistry::new(0);
        r.record_phase("a", 2.0);
        r.record_phase("a/b", 1.5);
        r.record_phase("c", 1.0);
        assert_eq!(r.busy_seconds(), 3.0);
    }
}
