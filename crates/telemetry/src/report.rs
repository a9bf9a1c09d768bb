//! Cross-rank reduction of per-rank registries into the run-level
//! report: the model-speedup metric, the per-phase wall-clock
//! breakdown, and load-imbalance statistics.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Value;
use crate::registry::{PhaseStat, TelemetryRegistry};

/// Schema identifier written into every report.
pub const SCHEMA: &str = "foam-telemetry/1";

/// Cross-rank aggregate of one phase path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseAgg {
    /// Total seconds across all ranks that entered the phase.
    pub sum: f64,
    /// Minimum / mean / maximum seconds over the ranks that entered it.
    pub min: f64,
    pub mean: f64,
    pub max: f64,
    /// Total entries across ranks.
    pub calls: u64,
    /// Ranks that entered the phase at least once.
    pub ranks: usize,
}

impl PhaseAgg {
    /// `max/mean` over participating ranks — 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        if self.mean > 0.0 {
            self.max / self.mean
        } else {
            1.0
        }
    }
}

/// Load-imbalance summary over per-rank busy time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Imbalance {
    pub min: f64,
    pub mean: f64,
    pub max: f64,
}

impl Imbalance {
    /// `max/mean` — 1.0 is perfect balance.
    pub fn ratio(&self) -> f64 {
        if self.mean > 0.0 {
            self.max / self.mean
        } else {
            1.0
        }
    }
}

/// One rank's slice of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    pub rank: usize,
    /// Wall-clock span of the rank.
    pub wall_seconds: f64,
    /// Seconds inside top-level phases (the load-imbalance quantity).
    pub busy_seconds: f64,
    pub phases: BTreeMap<String, PhaseStat>,
    pub counters: BTreeMap<String, u64>,
}

impl RankReport {
    /// Fold another run's slice of the *same rank* into this one:
    /// wall/busy seconds add, phase stats and counters sum. This is the
    /// per-rank half of the cross-run report merge
    /// ([`TelemetryReport::merged`]); it is commutative and associative.
    pub fn merge(&mut self, other: &RankReport) {
        debug_assert_eq!(self.rank, other.rank, "merging different ranks");
        self.wall_seconds += other.wall_seconds;
        self.busy_seconds += other.busy_seconds;
        for (path, stat) in &other.phases {
            self.phases
                .entry(path.clone())
                .or_insert(PhaseStat {
                    calls: 0,
                    seconds: 0.0,
                })
                .merge(stat);
        }
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += *n;
        }
    }

    /// Total seconds on this rank of every phase whose *leaf* name is
    /// `leaf`, wherever it sits in the tree (the per-rank analogue of
    /// [`TelemetryReport::rollup`]).
    pub fn leaf_seconds(&self, leaf: &str) -> f64 {
        // Fold from +0.0: an empty `Sum<f64>` is -0.0, which would
        // format as "-0.000" in reports.
        self.phases
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .fold(0.0, |acc, (_, s)| acc + s.seconds)
    }
}

/// The run-level telemetry report: what [`crate::TelemetryRegistry`]
/// instances from every rank reduce into at the end of a coupled run.
///
/// ```
/// use foam_telemetry::{TelemetryRegistry, TelemetryReport};
///
/// let mut r0 = TelemetryRegistry::new(0);
/// r0.record_phase("atmosphere", 2.0);
/// r0.record_phase("atmosphere/physics", 1.5);
/// let mut r1 = TelemetryRegistry::new(1);
/// r1.record_phase("ocean", 1.0);
/// // One simulated day integrated in two wall-clock seconds:
/// let report = TelemetryReport::from_ranks(86_400.0, 2.0, vec![r1, r0]);
/// assert_eq!(report.model_speedup, 43_200.0);
/// assert_eq!(report.ranks[0].rank, 0); // sorted by rank, input order irrelevant
/// assert!(report.phase("atmosphere/physics").is_some());
/// assert!(report.tree_consistent(1e-9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Simulated span covered by this run \[s\].
    pub sim_seconds: f64,
    /// Wall-clock span of the integration \[s\].
    pub wall_seconds: f64,
    /// The paper's headline metric: simulated time / wall-clock time
    /// (equivalently, simulated days per wall-clock day).
    pub model_speedup: f64,
    /// Per-rank slices, sorted by rank.
    pub ranks: Vec<RankReport>,
    /// Cross-rank aggregates keyed by `/`-joined phase path.
    pub phases: BTreeMap<String, PhaseAgg>,
    /// Counters summed across ranks.
    pub counters: BTreeMap<String, u64>,
    /// Extra report sections supplied by higher layers (e.g. the run
    /// supervisor's recovery section), keyed by section name. Rendered
    /// verbatim into the JSON document; deterministic content is the
    /// supplier's contract (BTreeMap ordering keeps the keys stable).
    pub extra: BTreeMap<String, Value>,
}

impl TelemetryReport {
    /// Reduce per-rank registries into the run-level report. The input
    /// order is irrelevant: ranks are sorted and all aggregation is
    /// commutative, so any permutation produces an identical report.
    pub fn from_ranks(
        sim_seconds: f64,
        wall_seconds: f64,
        regs: Vec<TelemetryRegistry>,
    ) -> TelemetryReport {
        let mut ranks: Vec<RankReport> = regs
            .into_iter()
            .map(|r| RankReport {
                rank: r.rank(),
                wall_seconds: r.wall_seconds(),
                busy_seconds: r.busy_seconds(),
                phases: r.phases().clone(),
                counters: r.counters().clone(),
            })
            .collect();
        ranks.sort_by_key(|r| r.rank);
        let (phases, counters) = Self::aggregate(&ranks);
        let wall = wall_seconds.max(1e-9);
        TelemetryReport {
            sim_seconds,
            wall_seconds,
            model_speedup: sim_seconds / wall,
            ranks,
            phases,
            counters,
            extra: BTreeMap::new(),
        }
    }

    /// Cross-rank aggregation of per-rank slices (shared by the initial
    /// reduction and the cross-run merge).
    #[allow(clippy::type_complexity)]
    fn aggregate(ranks: &[RankReport]) -> (BTreeMap<String, PhaseAgg>, BTreeMap<String, u64>) {
        let mut phases: BTreeMap<String, PhaseAgg> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for r in ranks {
            for (path, stat) in &r.phases {
                let agg = phases.entry(path.clone()).or_insert(PhaseAgg {
                    sum: 0.0,
                    min: f64::INFINITY,
                    mean: 0.0,
                    max: 0.0,
                    calls: 0,
                    ranks: 0,
                });
                agg.sum += stat.seconds;
                agg.min = agg.min.min(stat.seconds);
                agg.max = agg.max.max(stat.seconds);
                agg.calls += stat.calls;
                agg.ranks += 1;
            }
            for (name, n) in &r.counters {
                *counters.entry(name.clone()).or_insert(0) += *n;
            }
        }
        for agg in phases.values_mut() {
            agg.mean = agg.sum / agg.ranks.max(1) as f64;
        }
        (phases, counters)
    }

    /// Fold another *run's* report into this one — the cross-run half
    /// of ensemble aggregation. Same-rank slices merge
    /// ([`RankReport::merge`]), simulated and wall-clock spans add (the
    /// merged wall clock is the sequential-equivalent cost: what the
    /// member runs would cost back-to-back on one machine), and the
    /// cross-rank aggregates are recomputed. Absorbing a set of reports
    /// in any order yields the same merged report.
    pub fn absorb(&mut self, other: &TelemetryReport) {
        self.sim_seconds += other.sim_seconds;
        self.wall_seconds += other.wall_seconds;
        for theirs in &other.ranks {
            match self.ranks.iter_mut().find(|r| r.rank == theirs.rank) {
                Some(mine) => mine.merge(theirs),
                None => self.ranks.push(theirs.clone()),
            }
        }
        self.ranks.sort_by_key(|r| r.rank);
        let (phases, counters) = Self::aggregate(&self.ranks);
        self.phases = phases;
        self.counters = counters;
        self.model_speedup = self.sim_seconds / self.wall_seconds.max(1e-9);
        // Extra sections are carried over where this report has none of
        // its own; an existing section wins (it describes *this* run).
        for (k, v) in &other.extra {
            self.extra.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }

    /// Merge the reports of several runs (ensemble members) into one
    /// cumulative report; `None` when the iterator is empty.
    ///
    /// ```
    /// use foam_telemetry::{TelemetryRegistry, TelemetryReport};
    ///
    /// let mut r = TelemetryRegistry::new(0);
    /// r.record_phase("ocean", 1.0);
    /// let a = TelemetryReport::from_ranks(10.0, 1.0, vec![r.clone()]);
    /// let b = TelemetryReport::from_ranks(30.0, 1.0, vec![r]);
    /// let m = TelemetryReport::merged([&a, &b]).unwrap();
    /// assert_eq!(m.sim_seconds, 40.0);
    /// assert_eq!(m.phase("ocean").unwrap().sum, 2.0);
    /// ```
    pub fn merged<'a>(
        reports: impl IntoIterator<Item = &'a TelemetryReport>,
    ) -> Option<TelemetryReport> {
        let mut iter = reports.into_iter();
        let mut out = iter.next()?.clone();
        for r in iter {
            out.absorb(r);
        }
        Some(out)
    }

    /// The aggregate for one phase path.
    pub fn phase(&self, path: &str) -> Option<&PhaseAgg> {
        self.phases.get(path)
    }

    /// Total seconds (across ranks) of every phase whose *leaf* name is
    /// `leaf` — e.g. `rollup("spectral")` sums spectral-transform time
    /// wherever in the tree it was entered from.
    pub fn rollup(&self, leaf: &str) -> f64 {
        // Fold from +0.0 so an unmatched leaf reports 0.0, not the
        // empty sum's -0.0.
        self.phases
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .fold(0.0, |acc, (_, agg)| acc + agg.sum)
    }

    /// Min/mean/max of per-rank busy time — the paper's load-imbalance
    /// view of Figure 2. `None` when no rank recorded any phase.
    pub fn load_imbalance(&self) -> Option<Imbalance> {
        let busy: Vec<f64> = self
            .ranks
            .iter()
            .map(|r| r.busy_seconds)
            .filter(|&b| b > 0.0)
            .collect();
        if busy.is_empty() {
            return None;
        }
        let sum: f64 = busy.iter().sum();
        Some(Imbalance {
            min: busy.iter().cloned().fold(f64::INFINITY, f64::min),
            mean: sum / busy.len() as f64,
            max: busy.iter().cloned().fold(0.0, f64::max),
        })
    }

    /// Check the timing tree: on every rank, the children of each phase
    /// must not sum to more than the parent plus `tol` seconds (timers
    /// are inclusive, so children ≤ parent by construction — a violation
    /// means scopes were mispaired).
    pub fn tree_consistent(&self, tol: f64) -> bool {
        for r in &self.ranks {
            for (path, stat) in &r.phases {
                let prefix = format!("{path}/");
                let child_sum: f64 = r
                    .phases
                    .iter()
                    .filter(|(p, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains('/'))
                    .map(|(_, s)| s.seconds)
                    .sum();
                if child_sum > stat.seconds + tol {
                    return false;
                }
            }
        }
        true
    }

    /// Render the report as a JSON document (see DESIGN.md §9 for the
    /// schema).
    pub fn to_json(&self) -> Value {
        let phases = Value::Object(
            self.phases
                .iter()
                .map(|(path, a)| {
                    (
                        path.clone(),
                        Value::object([
                            ("sum_s".to_string(), a.sum.into()),
                            ("min_s".to_string(), a.min.into()),
                            ("mean_s".to_string(), a.mean.into()),
                            ("max_s".to_string(), a.max.into()),
                            ("imbalance".to_string(), a.imbalance().into()),
                            ("calls".to_string(), a.calls.into()),
                            ("ranks".to_string(), a.ranks.into()),
                        ]),
                    )
                })
                .collect(),
        );
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::from(*v)))
                .collect(),
        );
        let ranks = Value::Array(
            self.ranks
                .iter()
                .map(|r| {
                    Value::object([
                        ("rank".to_string(), r.rank.into()),
                        ("wall_s".to_string(), r.wall_seconds.into()),
                        ("busy_s".to_string(), r.busy_seconds.into()),
                        (
                            "phases".to_string(),
                            Value::Object(
                                r.phases
                                    .iter()
                                    .map(|(p, s)| {
                                        (
                                            p.clone(),
                                            Value::object([
                                                ("s".to_string(), s.seconds.into()),
                                                ("calls".to_string(), s.calls.into()),
                                            ]),
                                        )
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "counters".to_string(),
                            Value::Object(
                                r.counters
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let imbalance = match self.load_imbalance() {
            Some(i) => Value::object([
                ("min_s".to_string(), i.min.into()),
                ("mean_s".to_string(), i.mean.into()),
                ("max_s".to_string(), i.max.into()),
                ("max_over_mean".to_string(), i.ratio().into()),
            ]),
            None => Value::Null,
        };
        let mut fields = vec![
            ("schema".to_string(), Value::from(SCHEMA)),
            ("sim_seconds".to_string(), self.sim_seconds.into()),
            ("wall_seconds".to_string(), self.wall_seconds.into()),
            ("model_speedup".to_string(), self.model_speedup.into()),
            (
                "sim_days_per_wall_day".to_string(),
                self.model_speedup.into(),
            ),
            ("n_ranks".to_string(), self.ranks.len().into()),
            ("load_imbalance".to_string(), imbalance),
            ("phases".to_string(), phases),
            ("counters".to_string(), counters),
            ("ranks".to_string(), ranks),
        ];
        // Extra sections last, in BTreeMap (sorted-key) order; absent
        // entirely when no layer added one, keeping plain reports
        // unchanged.
        for (k, v) in &self.extra {
            fields.push((k.clone(), v.clone()));
        }
        Value::object(fields)
    }

    /// Write the report as pretty-printed JSON at `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(rank: usize, phases: &[(&str, f64)], counters: &[(&str, u64)]) -> TelemetryRegistry {
        let mut r = TelemetryRegistry::new(rank);
        for (p, s) in phases {
            r.record_phase(p, *s);
        }
        for (c, n) in counters {
            r.add(c, *n);
        }
        r
    }

    #[test]
    fn reduction_is_input_order_independent() {
        let a = reg(0, &[("atm", 2.0), ("atm/phys", 1.0)], &[("n", 1)]);
        let b = reg(1, &[("atm", 3.0)], &[("n", 2)]);
        let c = reg(2, &[("ocean", 1.0)], &[]);
        let r1 = TelemetryReport::from_ranks(1.0, 1.0, vec![a.clone(), b.clone(), c.clone()]);
        let r2 = TelemetryReport::from_ranks(1.0, 1.0, vec![c, a, b]);
        assert_eq!(r1, r2);
        assert_eq!(
            r1.to_json().to_string_pretty(),
            r2.to_json().to_string_pretty()
        );
    }

    #[test]
    fn aggregates_and_imbalance() {
        let a = reg(0, &[("atm", 2.0)], &[]);
        let b = reg(1, &[("atm", 4.0)], &[]);
        let r = TelemetryReport::from_ranks(86_400.0, 4.0, vec![a, b]);
        let agg = r.phase("atm").unwrap();
        assert_eq!(agg.sum, 6.0);
        assert_eq!(agg.min, 2.0);
        assert_eq!(agg.max, 4.0);
        assert_eq!(agg.mean, 3.0);
        assert!((agg.imbalance() - 4.0 / 3.0).abs() < 1e-12);
        let imb = r.load_imbalance().unwrap();
        assert_eq!((imb.min, imb.mean, imb.max), (2.0, 3.0, 4.0));
        assert_eq!(r.model_speedup, 86_400.0 / 4.0);
    }

    #[test]
    fn rollup_sums_by_leaf_name() {
        let a = reg(
            0,
            &[
                ("atm/dyn/spectral", 1.0),
                ("atm/tracer/spectral", 0.5),
                ("spectral", 0.25),
            ],
            &[],
        );
        let r = TelemetryReport::from_ranks(1.0, 1.0, vec![a]);
        assert!((r.rollup("spectral") - 1.75).abs() < 1e-12);
        assert_eq!(r.rollup("nothing"), 0.0);
        assert!((r.ranks[0].leaf_seconds("spectral") - 1.75).abs() < 1e-12);
    }

    #[test]
    fn tree_consistency_detects_mispaired_scopes() {
        let good = reg(0, &[("a", 2.0), ("a/b", 1.0), ("a/c", 0.5)], &[]);
        assert!(TelemetryReport::from_ranks(1.0, 1.0, vec![good]).tree_consistent(1e-9));
        let bad = reg(0, &[("a", 1.0), ("a/b", 2.0)], &[]);
        assert!(!TelemetryReport::from_ranks(1.0, 1.0, vec![bad]).tree_consistent(1e-9));
    }

    #[test]
    fn cross_run_merge_sums_and_is_order_independent() {
        let a = TelemetryReport::from_ranks(
            10.0,
            2.0,
            vec![
                reg(0, &[("atm", 1.0)], &[("msgs", 3)]),
                reg(1, &[("ocean", 2.0)], &[]),
            ],
        );
        let b = TelemetryReport::from_ranks(
            30.0,
            1.0,
            vec![reg(0, &[("atm", 0.5), ("ckpt", 0.25)], &[("msgs", 1)])],
        );
        let c = TelemetryReport::from_ranks(5.0, 0.5, vec![reg(2, &[("ocean", 4.0)], &[])]);
        let ab_c = {
            let mut m = TelemetryReport::merged([&a, &b]).unwrap();
            m.absorb(&c);
            m
        };
        let c_b_a = TelemetryReport::merged([&c, &b, &a]).unwrap();
        assert_eq!(ab_c, c_b_a);
        assert_eq!(ab_c.sim_seconds, 45.0);
        assert_eq!(ab_c.wall_seconds, 3.5);
        assert_eq!(ab_c.phase("atm").unwrap().sum, 1.5);
        assert_eq!(ab_c.phase("ocean").unwrap().sum, 6.0);
        assert_eq!(ab_c.counters["msgs"], 4);
        assert_eq!(ab_c.ranks.len(), 3);
        assert!(TelemetryReport::merged(std::iter::empty()).is_none());
    }

    #[test]
    fn json_report_carries_the_headline_fields() {
        let a = reg(0, &[("atm", 1.0)], &[("msgs", 7)]);
        let r = TelemetryReport::from_ranks(86_400.0, 2.0, vec![a]);
        let v = r.to_json();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
        assert_eq!(
            v.get("model_speedup").and_then(|x| x.as_f64()),
            Some(43_200.0)
        );
        assert!(v.get("phases").unwrap().get("atm").is_some());
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("msgs")
                .and_then(|x| x.as_f64()),
            Some(7.0)
        );
        // Emitted JSON must parse back with our own parser.
        let text = v.to_string_pretty();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(back.get("n_ranks").and_then(|x| x.as_f64()), Some(1.0));
    }
}
